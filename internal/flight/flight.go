// Package flight is the always-on flight recorder: a bounded,
// lock-free, sharded ring journal of structured pipeline records plus
// the causal trace-id machinery that links records from different
// processes (agent and server) into one span tree per sampled frame.
//
// Design constraints, in order:
//
//   - Appends sit on the ingest and transmit hot paths, so Append is
//     //cwx:hotpath: no locks, no formatting, and no allocations but
//     the first write into each 4 KiB chunk of a shard's ring. Strings
//     never enter the ring — node names, rule names, and gate names are
//     interned once (cold path) into small Sym ids.
//   - Reads are rare (ctl verbs, dashboards) and may be slow, but they
//     must be safe under the race detector. A classic seqlock reads
//     plain fields and is a data race by Go's memory model, so every
//     slot field is an individual atomic: the writer claims the slot by
//     CAS-ing the version even→odd, stores the fields, then bumps it
//     back to even; the reader rejects odd versions and re-validates
//     the version after loading.
//   - The recorder is always on by default but has a kill switch
//     (SetEnabled) and the tracer has a sampling rate (SetRate,
//     default 1 in 64 frames) so the observability layer can be
//     ablated without rebuilding.
//
// Records carry a global sequence cursor (Journal.Cursor) so consumers
// — the ctl "journal since <seq>" verb and watch streams — can resume
// exactly where they left off; overwritten slots simply vanish from
// the query results (the ring keeps the newest journalShards*shardSlots
// records).
package flight

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a journal record. Stage records (KindStage) are the
// hops of a traced frame; everything else is a detour or control-plane
// incident worth reconstructing after the fact.
type Kind uint8

const (
	KindNone          Kind = iota
	KindStage              // one pipeline hop of a traced frame (Stage names it; A=duration ns, B=payload size)
	KindGap                // server saw a sequence gap (A=last applied wire seq, B=arriving seq)
	KindRegression         // server saw a sequence regression, i.e. agent restart (A=last seq, B=arriving seq)
	KindResyncSent         // server pushed a "!resync" request down the back-channel
	KindResyncRecv         // agent received a resync request
	KindResyncSnap         // agent shipped a healing snapshot (A=values; B=1 if requested, 0 if anti-entropy)
	KindSnapApplied        // server applied a full snapshot, divergence healed (A=values)
	KindRetransmit         // agent send carried banked values from failed ticks (A=values)
	KindSendFail           // agent send failed; values banked (A=values banked, B=consecutive fails)
	KindBank               // agent banked a delta during retry backoff (A=values, B=consecutive fails)
	KindEventFired         // event rule fired (Detail=rule, A=observed value truncated to int)
	KindNotifyRetry        // notifier rescheduled a failed delivery (Detail=rule, A=attempts so far)
	KindGateRebuild        // serving-plane gate rebuilt its cached response (Detail=gate name)
	KindWatchOverflow      // watch subscriber queue overflowed; subscriber flagged for resync
	KindWatchResync        // watch subscriber was sent a full RESYNC snapshot (Detail=verb)
	KindWireUpgrade        // wire session negotiated a new protocol version (A=version; agent on switch, server on first answer)
	KindWireReset          // wire dictionary reset (server: "!wreset" sent; agent: received and rebased)
	KindUplinkForward      // uplink forwarded a traced node sub-frame upstream (Node=node, A=values)
	KindUplinkResync       // uplink resync (sender: "!uresync" received or snap-all armed; receiver: batch chain break, "!uresync" sent)
	numKinds
)

var kindNames = [numKinds]string{
	KindNone:          "none",
	KindStage:         "stage",
	KindGap:           "gap",
	KindRegression:    "regression",
	KindResyncSent:    "resync-sent",
	KindResyncRecv:    "resync-recv",
	KindResyncSnap:    "resync-snap",
	KindSnapApplied:   "snap-applied",
	KindRetransmit:    "retransmit",
	KindSendFail:      "send-fail",
	KindBank:          "bank",
	KindEventFired:    "event-fired",
	KindNotifyRetry:   "notify-retry",
	KindGateRebuild:   "gate-rebuild",
	KindWatchOverflow: "watch-overflow",
	KindWatchResync:   "watch-resync",
	KindWireUpgrade:   "wire-upgrade",
	KindWireReset:     "wire-reset",
	KindUplinkForward: "uplink-forward",
	KindUplinkResync:  "uplink-resync",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// Stage names the pipeline hop a KindStage record measures, in pipeline
// order: the paper's three agent-side stages (§5.3 gathering →
// consolidation → transmission) followed by the server-side ones
// (ingest → event evaluation → notification).
type Stage uint8

const (
	StageGather Stage = iota
	StageConsolidate
	StageTransmit
	StageIngest
	StageEvents
	StageNotify
	NumStages
)

var stageNames = [NumStages]string{"gather", "consolidate", "transmit", "ingest", "events", "notify"}

// String returns the short lower-case stage name.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Sym is an interned string id. Sym 0 is always the empty string.
// Interning happens on cold paths (node registration, rule setup);
// hot-path appenders carry pre-resolved Syms.
type Sym uint32

// Entry is what appenders hand to Journal.Append. TimeNs is always
// caller-supplied — the flight package never reads a clock, so records
// are deterministic under the sim's virtual time (and cwxlint's
// clockdet scope never applies here). Components with no clock at all
// (the serving plane) pass 0.
type Entry struct {
	Kind   Kind
	Stage  Stage // meaningful for KindStage only
	Node   Sym
	Detail Sym
	Trace  uint64 // causal trace id; 0 = not tied to a sampled frame
	TimeNs int64
	A, B   int64 // kind-specific payload, see Kind comments
}

// Record is the query-side view of a journal entry: Syms resolved back
// to strings and the global sequence number attached.
type Record struct {
	Seq    uint64
	TimeNs int64
	Kind   Kind
	Stage  Stage
	Trace  uint64
	Node   string
	Detail string
	A, B   int64
}

const (
	journalShards = 8
	shardSlots    = 1024 // per shard, 8192 records in all; a shard's ring grows to this
	chunkSlots    = 64   // slots per chunk: 64 × 64 B = 4 KiB, one size class
	maxSyms       = 1 << 16
)

// slot is one ring cell. Every field is an individual atomic so
// concurrent read/write is defined behavior under the race detector;
// ver is the seqlock-style version (odd while a writer owns the slot).
// Eight 8-byte words: exactly one cache line.
type slot struct {
	ver   atomic.Uint64
	seq   atomic.Uint64
	time  atomic.Int64
	trace atomic.Uint64
	a     atomic.Int64
	b     atomic.Int64
	ks    atomic.Uint64 // kind<<8 | stage
	ids   atomic.Uint64 // node<<32 | detail
}

// jshard is one ring. Ring position i lives in chunks[i/chunkSlots],
// made by the first append that lands in it; a nil chunk holds no
// record.
type jshard struct {
	pos    atomic.Uint64
	chunks [shardSlots / chunkSlots]atomic.Pointer[[chunkSlots]slot]
	_      [64]byte // keep neighboring shards off each other's lines
}

// grow returns chunk k, making it if no append has yet. Racing makers
// publish by CAS; the loser drops its copy and uses the winner's.
func (sh *jshard) grow(k uint64) *[chunkSlots]slot {
	c := new([chunkSlots]slot)
	if sh.chunks[k].CompareAndSwap(nil, c) {
		return c
	}
	return sh.chunks[k].Load()
}

// Journal is the flight recorder. The zero value is not usable; call
// NewJournal (or use the process-wide Default).
type Journal struct {
	on  atomic.Bool
	seq atomic.Uint64 // global cursor; Append n returns n-th record's seq

	mu     sync.Mutex //cwx:lockrank flightsym 72
	byName map[string]Sym
	names  atomic.Pointer[[]string] // Sym→string table, append-only (see Sym)

	shards [journalShards]jshard
}

// NewJournal returns an enabled, empty journal.
func NewJournal() *Journal {
	j := &Journal{byName: make(map[string]Sym)}
	names := []string{""}
	j.names.Store(&names)
	j.on.Store(true)
	return j
}

var defaultJournal = NewJournal()

// Default is the process-wide journal every subsystem appends to.
func Default() *Journal { return defaultJournal }

// Enabled reports whether appends are being recorded.
func (j *Journal) Enabled() bool { return j.on.Load() }

// SetEnabled flips the recorder kill switch and returns the previous
// setting. Disabling makes Append a single atomic load.
func (j *Journal) SetEnabled(on bool) bool { return j.on.Swap(on) }

// Cursor returns the sequence number of the most recent record; a
// consumer that remembers it can ask Since(cursor, ...) for only what
// happened afterwards.
func (j *Journal) Cursor() uint64 { return j.seq.Load() }

// Sym interns name and returns its id. Cold path (takes the journal
// lock). The table is capped; past maxSyms new names collapse to Sym 0
// rather than growing without bound. A new name is appended into the
// table's spare capacity and the longer slice published: a reader never
// indexes past the length it loaded, so it never sees the slot being
// written, and registering n names costs O(n), not a copy per name.
func (j *Journal) Sym(name string) Sym {
	if name == "" {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if s, ok := j.byName[name]; ok {
		return s
	}
	cur := *j.names.Load()
	if len(cur) >= maxSyms {
		return 0
	}
	next := append(cur, name)
	s := Sym(len(cur))
	j.byName[name] = s
	j.names.Store(&next)
	return s
}

// name resolves a Sym without locking (the table is append-only).
func (j *Journal) name(s Sym) string {
	t := *j.names.Load()
	if int(s) < len(t) {
		return t[s]
	}
	return "?"
}

// Append records e on the given stripe (callers pass their shard index
// so concurrent appenders spread across rings) and returns the record's
// global sequence number, or 0 when the recorder is disabled.
//
//cwx:hotpath
func (j *Journal) Append(stripe int, e Entry) uint64 {
	if !j.on.Load() {
		return 0
	}
	seq := j.seq.Add(1)
	sh := &j.shards[uint(stripe)%journalShards]
	i := (sh.pos.Add(1) - 1) % shardSlots
	c := sh.chunks[i/chunkSlots].Load()
	if c == nil {
		c = sh.grow(i / chunkSlots)
	}
	s := &c[i%chunkSlots]
	// Claim the slot: even→odd via CAS. A failed CAS means another
	// writer lapped the ring onto this very slot; spin, it holds the
	// claim only for a handful of atomic stores.
	for {
		v := s.ver.Load()
		if v&1 == 0 && s.ver.CompareAndSwap(v, v+1) {
			break
		}
	}
	s.seq.Store(seq)
	s.time.Store(e.TimeNs)
	s.trace.Store(e.Trace)
	s.a.Store(e.A)
	s.b.Store(e.B)
	s.ks.Store(uint64(e.Kind)<<8 | uint64(e.Stage))
	s.ids.Store(uint64(e.Node)<<32 | uint64(e.Detail))
	s.ver.Add(1)
	return seq
}

// read snapshots one slot. ok is false for never-written slots and for
// slots that were being rewritten faster than we could read them.
func (j *Journal) read(s *slot) (Record, bool) {
	for tries := 0; tries < 8; tries++ {
		v := s.ver.Load()
		if v&1 == 1 {
			continue
		}
		r := Record{
			Seq:    s.seq.Load(),
			TimeNs: s.time.Load(),
			Trace:  s.trace.Load(),
			A:      s.a.Load(),
			B:      s.b.Load(),
		}
		ks := s.ks.Load()
		ids := s.ids.Load()
		if s.ver.Load() != v {
			continue
		}
		if r.Seq == 0 {
			return Record{}, false
		}
		r.Kind = Kind(ks >> 8)
		r.Stage = Stage(ks)
		r.Node = j.name(Sym(ids >> 32))
		r.Detail = j.name(Sym(uint32(ids)))
		return r, true
	}
	return Record{}, false
}

// collect scans the whole ring and returns records passing keep, in
// ascending sequence order.
func (j *Journal) collect(keep func(*Record) bool) []Record {
	var out []Record
	for si := range j.shards {
		sh := &j.shards[si]
		for k := range sh.chunks {
			if c := sh.chunks[k].Load(); c != nil {
				for i := range c {
					if r, ok := j.read(&c[i]); ok && keep(&r) {
						out = append(out, r)
					}
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Since returns every retained record with Seq > since, oldest first.
// If max > 0 only the newest max of them are returned (the cursor
// still advances monotonically, so a follower never re-reads).
func (j *Journal) Since(since uint64, max int) []Record {
	out := j.collect(func(r *Record) bool { return r.Seq > since })
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// TraceRecords returns every retained record stamped with trace id,
// oldest first — the span tree of one sampled frame.
func (j *Journal) TraceRecords(id uint64) []Record {
	if id == 0 {
		return nil
	}
	return j.collect(func(r *Record) bool { return r.Trace == id })
}

// NodeRecords returns the newest max retained records for a node.
func (j *Journal) NodeRecords(node string, max int) []Record {
	out := j.collect(func(r *Record) bool { return r.Node == node })
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// LastTrace returns the most recent trace id that produced a record
// for node, or 0 if none is retained.
func (j *Journal) LastTrace(node string) uint64 {
	recs := j.collect(func(r *Record) bool { return r.Node == node && r.Trace != 0 })
	if len(recs) == 0 {
		return 0
	}
	return recs[len(recs)-1].Trace
}

// NodeTrace is one node's newest retained trace: its id and, per
// pipeline stage, the newest KindStage record the node holds under it
// (the zero Record where that hop left none or the ring evicted it).
type NodeTrace struct {
	Node   string
	Trace  uint64
	Stages [NumStages]Record
}

// LatestTraces returns, for every node a retained traced record names,
// the trace LastTrace would pick and that trace's stage records, sorted
// by node name. One scan of the ring serves every node.
func (j *Journal) LatestTraces() []NodeTrace {
	recs := j.collect(func(r *Record) bool { return r.Trace != 0 && r.Node != "" })
	rows := make(map[string]*NodeTrace)
	for _, r := range recs { // ascending seq: the newest trace wins
		row := rows[r.Node]
		if row == nil {
			row = &NodeTrace{Node: r.Node}
			rows[r.Node] = row
		}
		row.Trace = r.Trace
	}
	for _, r := range recs {
		if row := rows[r.Node]; r.Kind == KindStage && r.Trace == row.Trace && r.Stage < NumStages {
			row.Stages[r.Stage] = r
		}
	}
	out := make([]NodeTrace, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Node < out[b].Node })
	return out
}

// Capacity is the number of records the ring retains.
func Capacity() int { return journalShards * shardSlots }

// Reset drops every chunk and rewinds the cursor. Test helper only: it
// must not race live writers (an append already holding a chunk writes
// into the dropped one, and the cursor rewind is not coordinated).
func (j *Journal) Reset() {
	for si := range j.shards {
		sh := &j.shards[si]
		for k := range sh.chunks {
			sh.chunks[k].Store(nil)
		}
		sh.pos.Store(0)
	}
	j.seq.Store(0)
}
