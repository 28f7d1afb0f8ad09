package flight

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestAppendAndSince(t *testing.T) {
	j := NewJournal()
	n := j.Sym("node001")
	d := j.Sym("cpu-high")
	for i := 1; i <= 5; i++ {
		seq := j.Append(0, Entry{Kind: KindGap, Node: n, Detail: d, TimeNs: int64(i), A: int64(i), B: int64(i + 1)})
		if seq != uint64(i) {
			t.Fatalf("append %d returned seq %d", i, seq)
		}
	}
	if got := j.Cursor(); got != 5 {
		t.Fatalf("cursor = %d, want 5", got)
	}
	rs := j.Since(0, 0)
	if len(rs) != 5 {
		t.Fatalf("Since(0) returned %d records, want 5", len(rs))
	}
	for i, r := range rs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d out of order: seq %d", i, r.Seq)
		}
		if r.Node != "node001" || r.Detail != "cpu-high" || r.Kind != KindGap {
			t.Fatalf("record fields wrong: %+v", r)
		}
	}
	if rs := j.Since(3, 0); len(rs) != 2 || rs[0].Seq != 4 {
		t.Fatalf("Since(3) = %+v", rs)
	}
	if rs := j.Since(0, 2); len(rs) != 2 || rs[0].Seq != 4 || rs[1].Seq != 5 {
		t.Fatalf("Since(0, max=2) should keep the newest: %+v", rs)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	j := NewJournal()
	n := j.Sym("n")
	total := shardSlots + 100 // stripe-pinned: wraps one shard's ring
	for i := 1; i <= total; i++ {
		j.Append(0, Entry{Kind: KindBank, Node: n, A: int64(i)})
	}
	rs := j.Since(0, 0)
	if len(rs) != shardSlots {
		t.Fatalf("retained %d records, want %d", len(rs), shardSlots)
	}
	if rs[0].Seq != uint64(total-shardSlots+1) || rs[len(rs)-1].Seq != uint64(total) {
		t.Fatalf("retained window [%d,%d], want [%d,%d]",
			rs[0].Seq, rs[len(rs)-1].Seq, total-shardSlots+1, total)
	}
}

func TestTraceAndNodeQueries(t *testing.T) {
	j := NewJournal()
	a, b := j.Sym("alpha"), j.Sym("beta")
	j.Append(0, Entry{Kind: KindStage, Stage: 0, Node: a, Trace: 7, TimeNs: 1})
	j.Append(1, Entry{Kind: KindStage, Stage: 3, Node: a, Trace: 7, TimeNs: 2})
	j.Append(2, Entry{Kind: KindStage, Stage: 3, Node: b, Trace: 9, TimeNs: 3})
	j.Append(3, Entry{Kind: KindGap, Node: a})

	tr := j.TraceRecords(7)
	if len(tr) != 2 || tr[0].Stage != 0 || tr[1].Stage != 3 {
		t.Fatalf("TraceRecords(7) = %+v", tr)
	}
	if got := j.LastTrace("alpha"); got != 7 {
		t.Fatalf("LastTrace(alpha) = %d, want 7", got)
	}
	if got := j.LastTrace("beta"); got != 9 {
		t.Fatalf("LastTrace(beta) = %d, want 9", got)
	}
	if got := j.LastTrace("ghost"); got != 0 {
		t.Fatalf("LastTrace(ghost) = %d, want 0", got)
	}
	if nr := j.NodeRecords("alpha", 0); len(nr) != 3 {
		t.Fatalf("NodeRecords(alpha) = %+v", nr)
	}
}

// TestLatestTraces: a node's row is the trace of its newest traced
// record, whatever the kind, and carries only that trace's stage
// records, the newest per stage; untraced and nameless records make no
// row.
func TestLatestTraces(t *testing.T) {
	j := NewJournal()
	a, b := j.Sym("alpha"), j.Sym("beta")
	j.Append(0, Entry{Kind: KindStage, Stage: StageGather, Node: a, Trace: 7, A: 1, B: 2})
	j.Append(1, Entry{Kind: KindStage, Stage: StageGather, Node: a, Trace: 8, A: 3, B: 4})
	j.Append(2, Entry{Kind: KindStage, Stage: StageIngest, Node: a, Trace: 7, A: 5, B: 6})
	j.Append(3, Entry{Kind: KindStage, Stage: StageIngest, Node: a, Trace: 7, A: 9, B: 10})
	j.Append(4, Entry{Kind: KindStage, Stage: StageEvents, Node: b, Trace: 9, A: 11, B: 12})
	j.Append(5, Entry{Kind: KindEventFired, Node: b, Trace: 10})
	j.Append(6, Entry{Kind: KindGap, Node: b})
	j.Append(7, Entry{Kind: KindGateRebuild, Trace: 11})

	rows := j.LatestTraces()
	if len(rows) != 2 || rows[0].Node != "alpha" || rows[1].Node != "beta" {
		t.Fatalf("LatestTraces = %+v", rows)
	}
	al := rows[0]
	if al.Trace != 7 || al.Trace != j.LastTrace("alpha") {
		t.Fatalf("alpha trace = %d, want 7 (LastTrace %d)", al.Trace, j.LastTrace("alpha"))
	}
	if g := al.Stages[StageGather]; g.A != 1 || g.B != 2 {
		t.Fatalf("alpha gather = %+v, want trace 7's (1/2), not trace 8's", g)
	}
	if in := al.Stages[StageIngest]; in.A != 9 || in.B != 10 {
		t.Fatalf("alpha ingest = %+v, want the newest (9/10)", in)
	}
	be := rows[1]
	if be.Trace != 10 || be.Stages[StageEvents].Seq != 0 {
		t.Fatalf("beta = %+v, want trace 10 with no stage records", be)
	}
}

func TestStageStrings(t *testing.T) {
	want := []string{"gather", "consolidate", "transmit", "ingest", "events", "notify"}
	for i := Stage(0); i < NumStages; i++ {
		if i.String() != want[i] {
			t.Fatalf("Stage(%d) = %q, want %q", i, i, want[i])
		}
	}
	if Stage(99).String() != "unknown" {
		t.Fatal("out-of-range stage must be unknown")
	}
}

func TestKillSwitch(t *testing.T) {
	j := NewJournal()
	if !j.Enabled() {
		t.Fatal("journal should start enabled")
	}
	prev := j.SetEnabled(false)
	if !prev {
		t.Fatal("SetEnabled should return the previous value")
	}
	if seq := j.Append(0, Entry{Kind: KindGap}); seq != 0 {
		t.Fatalf("disabled append returned seq %d", seq)
	}
	j.SetEnabled(true)
	if seq := j.Append(0, Entry{Kind: KindGap}); seq != 1 {
		t.Fatalf("re-enabled append returned seq %d", seq)
	}
}

func TestSymInterning(t *testing.T) {
	j := NewJournal()
	if j.Sym("") != 0 {
		t.Fatal("empty string must intern to Sym 0")
	}
	s1 := j.Sym("node001")
	if s1 == 0 || j.Sym("node001") != s1 {
		t.Fatalf("interning not stable: %d vs %d", s1, j.Sym("node001"))
	}
	if j.name(s1) != "node001" {
		t.Fatalf("name(%d) = %q", s1, j.name(s1))
	}
	if j.name(Sym(99999)) != "?" {
		t.Fatal("unknown Sym should render as ?")
	}
}

// TestSymRegistrationIsLinear registers a 1 024-node tree's names on a
// fresh journal: the table grows by appending, so the bytes allocated
// are the table's doublings, the name index and a slice header a name
// (≈190 KB), where copying the table for every new name costs
// 16 B × 1 024 × 1 025 / 2 ≈ 8.4 MB (9.0 MB measured with the index).
func TestSymRegistrationIsLinear(t *testing.T) {
	const nodes, budget = 1024, 256 << 10
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%04d", i)
	}
	j := NewJournal()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, name := range names {
		j.Sym(name)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Fatalf("registering %d names allocated %d B, want < %d", nodes, got, budget)
	}
	for i, name := range names {
		if got := j.name(Sym(i + 1)); got != name {
			t.Fatalf("name(%d) = %q, want %q", i+1, got, name)
		}
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	j := NewJournal()
	syms := [4]Sym{j.Sym("n0"), j.Sym("n1"), j.Sym("n2"), j.Sym("n3")}
	const writers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Append(w, Entry{Kind: KindStage, Stage: Stage(i % 6), Node: syms[w%4], Trace: uint64(w + 1), TimeNs: int64(i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, r := range j.Since(0, 0) {
				if r.Kind != KindStage || r.Seq == 0 {
					t.Errorf("torn record: %+v", r)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := j.Cursor(); got != writers*per {
		t.Fatalf("cursor = %d, want %d", got, writers*per)
	}
	rs := j.Since(0, 0)
	for i := 1; i < len(rs); i++ {
		if rs[i].Seq <= rs[i-1].Seq {
			t.Fatalf("records not strictly ordered at %d: %d then %d", i, rs[i-1].Seq, rs[i].Seq)
		}
	}
}

func TestSamplingDeterminism(t *testing.T) {
	prev := SetRate(64)
	defer SetRate(prev)
	salt := Salt("node001")
	var ids []uint64
	hits := 0
	for n := uint64(0); n < 64*10; n++ {
		if id := NextTrace(salt, n); id != 0 {
			hits++
			ids = append(ids, id)
		}
	}
	if hits != 10 {
		t.Fatalf("sampled %d of 640 ticks at rate 64, want 10", hits)
	}
	// Deterministic: the same (salt, tick) always mints the same id.
	for n := uint64(0); n < 64*10; n++ {
		id := NextTrace(salt, n)
		if id != 0 && id != NewTraceID(salt, n) {
			t.Fatalf("trace id not deterministic at tick %d", n)
		}
	}
	// Distinct ticks mint distinct ids.
	seen := map[uint64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate trace id %016x", id)
		}
		seen[id] = true
	}
	// Different salts sample different phases (not all aligned at 0).
	if Salt("node001")%64 == Salt("node002")%64 && Salt("node001")%64 == Salt("node003")%64 {
		t.Fatal("salts collapse to one sampling phase")
	}
	SetRate(0)
	if NextTrace(salt, 0) != 0 {
		t.Fatal("rate 0 must disable tracing")
	}
}

func TestTraceFormatParse(t *testing.T) {
	for _, id := range []uint64{1, 0xdeadbeef, ^uint64(0)} {
		s := FormatTrace(id)
		if len(s) != 16 {
			t.Fatalf("FormatTrace(%x) = %q", id, s)
		}
		got, ok := ParseTrace(s)
		if !ok || got != id {
			t.Fatalf("roundtrip %x -> %q -> %x ok=%v", id, s, got, ok)
		}
	}
	for _, s := range []string{"", "node001", "0000000000000000", "00000000000000zz", "123"} {
		if _, ok := ParseTrace(s); ok {
			t.Fatalf("ParseTrace(%q) should fail", s)
		}
	}
}

func TestReset(t *testing.T) {
	j := NewJournal()
	j.Append(0, Entry{Kind: KindGap})
	j.Append(5, Entry{Kind: KindBank})
	j.Reset()
	if j.Cursor() != 0 || len(j.Since(0, 0)) != 0 {
		t.Fatal("Reset did not clear the journal")
	}
	if seq := j.Append(0, Entry{Kind: KindGap}); seq != 1 {
		t.Fatalf("post-reset append seq = %d", seq)
	}
}

// heldChunks counts the ring chunks a journal has made.
func heldChunks(j *Journal) int {
	n := 0
	for si := range j.shards {
		for k := range j.shards[si].chunks {
			if j.shards[si].chunks[k].Load() != nil {
				n++
			}
		}
	}
	return n
}

// TestChunksFollowWrites: a fresh journal holds no chunk, N appends to
// one stripe hold ⌈N/64⌉ of them up to the ring's 16, a wrap makes no
// more, and Reset drops them all.
func TestChunksFollowWrites(t *testing.T) {
	j := NewJournal()
	if n := heldChunks(j); n != 0 {
		t.Fatalf("fresh journal holds %d chunks, want 0", n)
	}
	written := 0
	for _, n := range []int{1, 63, 64, 65, 500, 1023, 1024, 1025, 3000} {
		for ; written < n; written++ {
			j.Append(3, Entry{Kind: KindBank, A: int64(written)})
		}
		want := min((n+chunkSlots-1)/chunkSlots, shardSlots/chunkSlots)
		if got := heldChunks(j); got != want {
			t.Fatalf("%d appends hold %d chunks, want %d", n, got, want)
		}
		if got := len(j.Since(0, 0)); got != min(n, shardSlots) {
			t.Fatalf("%d appends retain %d records, want %d", n, got, min(n, shardSlots))
		}
	}
	j.Reset()
	if n := heldChunks(j); n != 0 {
		t.Fatalf("Reset left %d chunks", n)
	}
}

// TestConcurrentFirstWrites: appenders racing onto one stripe's fresh
// chunks lose no record to a dropped copy.
func TestConcurrentFirstWrites(t *testing.T) {
	j := NewJournal()
	const writers, per = 8, 120 // 960 records: no wrap, 15 chunks
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Append(5, Entry{Kind: KindBank, A: int64(i)})
			}
		}()
	}
	wg.Wait()
	if got := len(j.Since(0, 0)); got != writers*per {
		t.Fatalf("retained %d records, want %d", got, writers*per)
	}
	if got, want := heldChunks(j), (writers*per+chunkSlots-1)/chunkSlots; got != want {
		t.Fatalf("holds %d chunks, want %d", got, want)
	}
}

// TestReadersSeeWholeRecordsWhileChunksGrow: Since, collect's other
// readers and LatestTraces scan while eight appenders fill fresh shards
// (one of them wrapping its ring); every record a reader returns is one
// writer's whole entry. Run it under -race.
func TestReadersSeeWholeRecordsWhileChunksGrow(t *testing.T) {
	j := NewJournal()
	var syms [journalShards]Sym
	var names [journalShards]string
	for w := range syms {
		names[w] = "w" + string(rune('0'+w))
		syms[w] = j.Sym(names[w])
	}
	// Every field derives from x = w<<32 | i, so a record mixing two
	// writes shows.
	entry := func(w, i int) Entry {
		x := int64(w)<<32 | int64(i)
		return Entry{Kind: KindStage, Stage: Stage(i % int(NumStages)), Node: syms[w],
			Trace: uint64(x) + 1, TimeNs: 3 * x, A: x, B: ^x}
	}
	whole := func(r Record) bool {
		x := r.A
		w, i := int(x>>32), int(uint32(x))
		return w < journalShards && r.Kind == KindStage && r.Stage == Stage(i%int(NumStages)) &&
			r.Node == names[w] && r.Trace == uint64(x)+1 && r.TimeNs == 3*x && r.B == ^x
	}
	var wg sync.WaitGroup
	for w := 0; w < journalShards; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 300 + 90*w
			if w == 0 {
				n = 8*shardSlots + 17 // wraps its ring eight times
			}
			for i := 0; i < n; i++ {
				j.Append(w, entry(w, i))
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	check := func(what string, rs []Record) bool {
		for _, r := range rs {
			if !whole(r) {
				t.Errorf("%s returned a torn record: %+v", what, r)
				return false
			}
		}
		return true
	}
	for rd := 0; rd < 3; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ok := true
				switch rd {
				case 0:
					ok = check("Since", j.Since(0, 0))
				case 1:
					ok = check("NodeRecords", j.NodeRecords(names[rd], 0)) &&
						check("TraceRecords", j.TraceRecords(uint64(1)<<32+1))
				case 2:
					for _, nt := range j.LatestTraces() {
						for _, r := range nt.Stages {
							if r.Seq != 0 && (!whole(r) || r.Node != nt.Node || r.Trace != nt.Trace) {
								t.Errorf("LatestTraces returned a torn record: %+v under %s/%d", r, nt.Node, nt.Trace)
								ok = false
							}
						}
					}
				}
				if !ok {
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	rs := j.Since(0, 0)
	want := shardSlots
	for w := 1; w < journalShards; w++ {
		want += 300 + 90*w
	}
	if len(rs) != want || !check("Since", rs) {
		t.Fatalf("retained %d records, want %d", len(rs), want)
	}
}
