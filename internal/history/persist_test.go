package history

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	st := NewStore(64)
	for i := 0; i < 30; i++ {
		ts := time.Duration(i) * time.Second
		st.Append("node a", "load.1", ts, float64(i)*0.1)
		st.Append("node a", "mem.free.kb", ts, 1e6-float64(i))
		st.Append("nodeb", "load.1", ts, 2)
	}
	var buf bytes.Buffer
	if err := st.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := NewStore(64)
	if err := loaded.LoadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := loaded.Nodes(); len(got) != 2 || got[0] != "node a" {
		t.Fatalf("nodes = %v (quoting broke?)", got)
	}
	orig := st.Series("node a", "load.1").Range(0, 1<<62)
	back := loaded.Series("node a", "load.1").Range(0, 1<<62)
	if len(orig) != len(back) {
		t.Fatalf("points %d vs %d", len(orig), len(back))
	}
	for i := range orig {
		if math.Abs((orig[i].T-back[i].T).Seconds()) > 1e-5 || orig[i].V != back[i].V {
			t.Fatalf("point %d: %+v vs %+v", i, orig[i], back[i])
		}
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		"",
		"wrong header\n",
		persistHeader + "\nnot a series line\n",
		persistHeader + "\nseries \"n\" \"m\" 2\n1.0 2.0\n", // truncated
		persistHeader + "\nseries \"n\" \"m\" 1\nnope\n",
		persistHeader + "\nseries \"n\" \"m\" 1\nx 1\n",
		persistHeader + "\nseries \"n\" \"m\" 1\n1 x\n",
	}
	for _, c := range cases {
		st := NewStore(8)
		if err := st.LoadFrom(strings.NewReader(c)); err == nil {
			t.Errorf("LoadFrom(%q) succeeded", c)
		}
	}
}

func TestLoadMergesIntoExisting(t *testing.T) {
	st := NewStore(16)
	st.Append("n", "m", 10*time.Second, 1)
	var buf bytes.Buffer
	old := NewStore(16)
	old.Append("n", "m", 5*time.Second, 0.5)  // older than live data: dropped
	old.Append("n", "m", 20*time.Second, 2.0) // newer: kept
	if err := old.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := st.LoadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	pts := st.Series("n", "m").Range(0, 1<<62)
	if len(pts) != 2 || pts[1].V != 2.0 {
		t.Fatalf("merged = %v", pts)
	}
}

// TestSaveLoadV2Exact pins the v2 promise: the block format round-trips
// sealed blocks, trim state, and head points bit-exactly — including
// NaN, ±Inf, denormals, and values the old %.6f text format destroyed.
func TestSaveLoadV2Exact(t *testing.T) {
	const capacity = 3 * headCapacity / 2 // one sealed block + partial head
	st := NewStore(capacity)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, math.Copysign(0, -1), 0.30000000000000004}
	for i := 0; i < capacity+40; i++ { // overfill so trim state persists too
		v := 40 + float64(i%32)*0.5
		if i%97 == 0 {
			v = specials[(i/97)%len(specials)]
		}
		st.Append("n", "m", time.Duration(i)*time.Second+time.Duration(i%7)*time.Millisecond, v)
	}
	var buf bytes.Buffer
	if err := st.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), persistHeaderV2+"\n") {
		t.Fatalf("SaveTo wrote header %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	back := NewStore(capacity)
	if err := back.LoadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	orig := st.Series("n", "m").Range(0, 1<<62)
	got := back.Series("n", "m").Range(0, 1<<62)
	if len(orig) != len(got) {
		t.Fatalf("points %d vs %d", len(orig), len(got))
	}
	for i := range orig {
		if orig[i].T != got[i].T || math.Float64bits(orig[i].V) != math.Float64bits(got[i].V) {
			t.Fatalf("point %d: %+v vs %+v (bit-exactness broke)", i, orig[i], got[i])
		}
	}
}

// TestSaveLoadGrowthSteps round-trips a store whose series sit on and
// around every head growth step. Loading re-appends, so a loaded series
// inherits the lazy growth: same points, same footprint, and saving it
// again writes the same bytes.
func TestSaveLoadGrowthSteps(t *testing.T) {
	st := NewStore(0)
	lens := []int{1, 7, 8, 9, 32, 33, 128, 129, 511, 512, 513}
	for _, n := range lens {
		for i := 0; i < n; i++ {
			st.Append(fmt.Sprintf("n%03d", n), "m", time.Duration(i)*time.Second, 0.1*float64(i%11))
		}
	}
	var buf bytes.Buffer
	if err := st.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	back := NewStore(0)
	if err := back.LoadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, n := range lens {
		node := fmt.Sprintf("n%03d", n)
		orig, got := st.Series(node, "m"), back.Series(node, "m")
		if got == nil || got.Len() != n {
			t.Fatalf("%s: loaded series missing or short", node)
		}
		if len(got.headT) != len(orig.headT) || got.Bytes() != orig.Bytes() {
			t.Fatalf("%s: loaded head %d points / %d B, saved %d / %d",
				node, len(got.headT), got.Bytes(), len(orig.headT), orig.Bytes())
		}
		a, b := orig.Range(0, 1<<62), got.Range(0, 1<<62)
		for i := range a {
			if a[i].T != b[i].T || math.Float64bits(a[i].V) != math.Float64bits(b[i].V) {
				t.Fatalf("%s point %d: %+v vs %+v", node, i, a[i], b[i])
			}
		}
		if sa, sb := orig.Stats(0, 1<<62), got.Stats(0, 1<<62); sa != sb {
			t.Fatalf("%s: Stats %+v vs %+v", node, sa, sb)
		}
	}
	var again bytes.Buffer
	if err := back.SaveTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("saving the loaded store wrote different bytes")
	}
}

// TestLoadV1Compat proves snapshots from before the block engine still load.
func TestLoadV1Compat(t *testing.T) {
	in := persistHeader + "\n" +
		"series \"node a\" \"load.1\" 3\n" +
		"1.000000 0.50\n2.000000 0.75\n3.000000 1.25\n"
	st := NewStore(16)
	if err := st.LoadFrom(strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	pts := st.Series("node a", "load.1").Range(0, 1<<62)
	if len(pts) != 3 || pts[2].V != 1.25 || pts[0].T != time.Second {
		t.Fatalf("v1 load = %v", pts)
	}
}

func TestLoadV2Errors(t *testing.T) {
	cases := []string{
		persistHeaderV2 + "\nnot a series line\n",
		persistHeaderV2 + "\nseries \"n\" \"m\" 1 0\n",                       // truncated: no block line
		persistHeaderV2 + "\nseries \"n\" \"m\" 1 0\nblock 2 0 AAAA\n",       // block bytes too short for count
		persistHeaderV2 + "\nseries \"n\" \"m\" 1 0\nblock 4 0 !!!!\n",       // bad base64
		persistHeaderV2 + "\nseries \"n\" \"m\" 1 0\nblock 0 0 AAAA\n",       // zero count
		persistHeaderV2 + "\nseries \"n\" \"m\" 1 0\nblock 2 5 AAAA\n",       // trim >= count
		persistHeaderV2 + "\nseries \"n\" \"m\" 1 0\nblock 9999999 0 AAAA\n", // count over bound
		persistHeaderV2 + "\nseries \"n\" \"m\" 0 1\n",                       // truncated: no head line
		persistHeaderV2 + "\nseries \"n\" \"m\" 0 1\nbadpoint\n",             // unsplittable head point
		persistHeaderV2 + "\nseries \"n\" \"m\" 0 1\nx 1\n",                  // bad timestamp
		persistHeaderV2 + "\nseries \"n\" \"m\" 0 1\n1 x\n",                  // bad value
		persistHeaderV2 + "\nseries \"n\" \"m\" -1 0\n",                      // negative counts
	}
	for _, c := range cases {
		st := NewStore(8)
		if err := st.LoadFrom(strings.NewReader(c)); err == nil {
			t.Errorf("LoadFrom(%q) succeeded", c)
		}
	}
}

// Property: save/load preserves every series' point count and last value
// for arbitrary stores.
func TestPropertyPersistRoundTrip(t *testing.T) {
	f := func(vals []int8, nodeSel []bool) bool {
		st := NewStore(32)
		for i, v := range vals {
			nodeName := "a"
			if i < len(nodeSel) && nodeSel[i] {
				nodeName = "b"
			}
			st.Append(nodeName, "m", time.Duration(i)*time.Second, float64(v))
		}
		var buf bytes.Buffer
		if err := st.SaveTo(&buf); err != nil {
			return false
		}
		back := NewStore(32)
		if err := back.LoadFrom(&buf); err != nil {
			return false
		}
		for _, nodeName := range st.Nodes() {
			a := st.Series(nodeName, "m")
			b := back.Series(nodeName, "m")
			if b == nil || a.Len() != b.Len() {
				return false
			}
			la, _ := a.Last()
			lb, _ := b.Last()
			if la.V != lb.V {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
