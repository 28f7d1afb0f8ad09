package history

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"math/rand"
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
	const header = persistHeaderV4
	cases := []string{
		"",
		"wrong header\n",
		header + "\nnot a series line\n",
		header + "\nseries \"n\" \"m\" 2\nblock 1 0 /////////////w==\n", // truncated
		header + "\nseries \"n\" \"m\" 1\nnope\n",
		header + "\nseries \"n\" \"m\" 1\nblock 5 0 AA==\n",       // block bytes too short for count
		header + "\nseries \"n\" \"m\" 1\nblock 1 0 !!!!\n",       // bad base64
		header + "\nseries \"n\" \"m\" 1\nblock 0 0 AAAA\n",       // zero count
		header + "\nseries \"n\" \"m\" 1\nblock 2 2 AAAA\n",       // trim >= count
		header + "\nseries \"n\" \"m\" 1\nblock 9999999 0 AAAA\n", // count over bound
		header + "\nseries \"n\" \"m\" 1\nblock 1 0 cAA=\n",       // a changed value that did not change
		header + "\nseries \"n\" \"m\" -1\n",                      // negative count
	}
	for _, block := range [][]byte{hostileStamp(5, 12), hostileStamp(1<<62, 9)} { // a stamp no encoder writes
		cases = append(cases, persistHeaderV4+"\nseries \"n\" \"m\" 1\nblock 1 0 "+base64.StdEncoding.EncodeToString(block)+"\n")
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

// TestSaveLoadV2Exact pins the block format's promise, made by v2 and
// kept since: closed blocks, trim state, and the open block round-trip
// bit-exactly — including NaN, ±Inf, denormals, and values a decimal
// text format destroys.
func TestSaveLoadV2Exact(t *testing.T) {
	const capacity = 3 * blockPoints / 2 // one closed block + a partial open one
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
	if !strings.HasPrefix(buf.String(), persistHeaderV4+"\n") {
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
// around every step of the open block's buffer ladder and its close.
// Loading re-appends, so a loaded series inherits the lazy growth: same
// points, same footprint, and saving it again writes the same bytes.
func TestSaveLoadGrowthSteps(t *testing.T) {
	st := NewStore(0)
	lens := []int{1, 7, 8, 9, 32, 33, 128, 129, 511, 512, 513, 1025}
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
		if gc, oc := cap(got.open.buf), cap(orig.open.buf); gc != oc || got.Bytes() != orig.Bytes() {
			t.Fatalf("%s: loaded buffer %d B / footprint %d B, saved %d / %d", node, gc, got.Bytes(), oc, orig.Bytes())
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

// fixtureStore builds a store (capacity 700) with a series that has
// evicted a whole block and trimmed the next, with two-decimal readings on
// a jittered clock and special values mixed in; an integer counter one
// block and a part long; and a five-point series.
func fixtureStore() *Store {
	st := NewStore(700)
	rng := rand.New(rand.NewSource(20))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, 0.30000000000000004}
	now := time.Duration(0)
	for i := 0; i < 1300; i++ {
		now += time.Second + time.Duration(rng.Intn(2_000_000))
		v := math.Round(rng.Float64()*600) / 100
		if i%89 == 0 {
			v = specials[(i/89)%len(specials)]
		}
		st.Append("node a", "load.1", now, v)
		if i < 600 {
			st.Append("n3", "net.rx.packets", now, float64(1000+17*i))
		}
		if i < 5 {
			st.Append("n2", "hw.temp.cpu", now, 40+0.5*float64(i))
		}
	}
	return st
}

// TestLoadV1Rejected: the point-per-line format has had no writer since
// the block engine; a v1 file fails with an error that says which format
// it is and which ones load.
func TestLoadV1Rejected(t *testing.T) {
	in := "clusterworx-history v1\nseries \"node a\" \"load.1\" 1\n1.000000 0.50\n"
	st := NewStore(16)
	err := st.LoadFrom(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), `"clusterworx-history v1"`) || !strings.Contains(err.Error(), persistHeaderV4) {
		t.Fatalf("v1 load: %v, want an error naming the version", err)
	}
	if len(st.Nodes()) != 0 {
		t.Fatalf("a rejected file loaded %v", st.Nodes())
	}
}

// failAfter is a writer that accepts n bytes and then fails.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, errDiskFull
	}
	return len(p), nil
}

// TestSaveToReportsWriteError: a writer that fails anywhere in the file —
// the header, a buffered block line, the final flush — fails SaveTo.
func TestSaveToReportsWriteError(t *testing.T) {
	st := fixtureStore()
	var whole bytes.Buffer
	if err := st.SaveTo(&whole); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 10, 4095, 4096, whole.Len() - 1} {
		if err := st.SaveTo(&failAfter{n: n}); !errors.Is(err, errDiskFull) {
			t.Fatalf("SaveTo to a writer that fails after %d B: %v", n, err)
		}
	}
}

// TestLoadV2Errors: the v2 and v3 readers are retired, so every file in
// either format — a well-formed one included — fails with an error that
// names its version and the format that loads, and loads nothing.
func TestLoadV2Errors(t *testing.T) {
	var v4 bytes.Buffer
	if err := fixtureStore().SaveTo(&v4); err != nil {
		t.Fatal(err)
	}
	body := strings.TrimPrefix(v4.String(), persistHeaderV4+"\n") // v3 framed its blocks the same way
	for _, c := range []struct{ header, body string }{
		{"clusterworx-history v2", ""},
		{"clusterworx-history v2", "series \"n\" \"m\" 0 1\n5 1\n"},
		{"clusterworx-history v2", "series \"n\" \"m\" 1 0\nblock 5 0 AA==\n"},
		{"clusterworx-history v3", ""},
		{"clusterworx-history v3", body},
	} {
		st := NewStore(8)
		in := c.header + "\n" + c.body
		err := st.LoadFrom(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), `"`+c.header+`"`) || !strings.Contains(err.Error(), persistHeaderV4) {
			t.Errorf("LoadFrom(%.60q): %v, want an error naming %s and the format that loads", in, err, c.header)
		}
		if len(st.Nodes()) != 0 {
			t.Errorf("a rejected file loaded %v", st.Nodes())
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
