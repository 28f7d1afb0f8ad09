// Package core is ClusterWorX itself: the 3-tier management framework
// (paper §5) tying every substrate together. Node agents gather and
// consolidate monitor data and transmit change sets; the management server
// keeps the cluster registry, historical store and event engine, fronts
// the ICE Boxes for corrective actions and console access, and drives disk
// cloning; clients (the CLI, the examples, and in the original product the
// Java GUI) talk to the server's control API.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/events"
	"clusterworx/internal/firmware"
	"clusterworx/internal/flight"
	"clusterworx/internal/history"
	"clusterworx/internal/icebox"
	"clusterworx/internal/image"
	"clusterworx/internal/notify"
	"clusterworx/internal/serve"
	"clusterworx/internal/telemetry"
	"clusterworx/internal/transmit"
)

// DownAfter is how long without agent data before a node is presumed down.
const DownAfter = 15 * time.Second

// NodeStatus is one row of the main monitoring screen.
type NodeStatus struct {
	Name     string
	Alive    bool // agent data within DownAfter
	LastSeen time.Duration
	Values   int // monitor values known
	Load1    float64
	TempC    float64
	MemPct   float64
}

// ingestShards is the lock-stripe count for the node table. A power of
// two so the name hash folds with a mask. 64 stripes keep the chance of
// two concurrent agents landing on the same stripe small even with every
// core of the management server ingesting at once.
const ingestShards = 64

// nodeShard is one stripe of the node table. The shard lock only guards
// map membership; per-node state is behind each nodeRec's own lock, so
// two agents updating different nodes never contend even within a stripe.
type nodeShard struct {
	mu    sync.RWMutex //cwx:lockrank shard 10
	nodes map[string]*nodeRec
}

// shardGen is one stripe of the ingest generation vector, padded so 64
// concurrent agents bumping different shards never share a cache line.
type shardGen struct {
	v atomic.Uint64
	_ [56]byte
}

// Server is the ClusterWorX management server.
type Server struct {
	now     func() time.Duration
	cluster string

	shards [ingestShards]nodeShard
	// hist is the historical store and, through its metric table, the
	// owner of every metric name and id the registry's columns carry.
	hist *history.Store
	// probeID and statusIDs are the ids of the metrics the server itself
	// names — the connectivity probe's, and the status screen's load.1,
	// hw.temp.cpu and mem.used.pct — resolved once.
	probeID   uint32
	statusIDs [3]uint32

	// The serving plane's invalidation state (PR 6). gens is the
	// per-shard ingest generation vector: every applied frame bumps its
	// node's stripe, and the derived global generation — the sum — moves
	// iff any stripe moved (each stripe is monotone), so cached answers
	// tagged with the sum are valid exactly until some input changed. No
	// timers anywhere: validity is "the data is the same data".
	gens [ingestShards]shardGen
	// regGen counts node registrations only; the "nodes" verb's cache
	// rides it so steady-state ingest never invalidates the name list.
	regGen atomic.Uint64
	// lastDataNs is s.now() at the most recently ingested value: the
	// read plane's history windows end here rather than at the caller's
	// wall clock, so a cached aggregate equals its uncached ablation
	// byte for byte and simulated runs render deterministically.
	lastDataNs atomic.Int64
	// watchSig wakes the watch hub's dispatcher after a generation bump.
	watchSig serve.Signal

	// uplink, when set, is this server's session to a parent tier: every
	// applied frame notes its node dirty there so the next flush forwards
	// the change set upstream (uplink.go). Atomic pointer so the ingest
	// hot path pays one load when federation is off.
	uplink atomic.Pointer[Uplink]
	// upIn counts uplink traffic arriving FROM child tiers (this server
	// as the parent side); see UplinkInStats.
	upIn uplinkInCounters

	plane *plane

	engine   *events.Engine
	notifier *notify.Notifier

	// mu guards the cold administrative state below; the ingest hot path
	// never takes it.
	mu      sync.Mutex //cwx:lockrank admin 12
	boxes   []*icebox.Box
	boxByID map[string]*icebox.Box

	images   *image.Store
	firmware map[string]firmware.Firmware
	cloner   func(imageID string, nodes []string) (string, error)
}

type nodeRec struct {
	// mu guards the record fields below with short critical sections. It
	// is never held while the event engine runs: ingest hands the engine a
	// pooled private copy of the numeric values, so rule plugins and
	// notifier callbacks may call any server API — including synchronously
	// re-ingesting values for this same node — without deadlocking.
	mu       sync.RWMutex //cwx:lockrank record 20
	name     string
	lastSeen time.Duration
	seen     bool
	// The node's current values: parallel columns sorted by metric id,
	// text held beside them (record.go).
	ids   []uint32
	flags []uint8
	nums  []float64
	texts []textSlot
	// hist is the node's series slab in the history store, resolved once
	// at registration so an append is a search of the node's own id column.
	hist *history.NodeSeries
	// shard is the record's stripe index, cached so telemetry on the
	// ingest path can stripe its counters without re-hashing the name.
	shard uint32
	// span is the node's pipeline trace slot, resolved once at
	// registration; recording through it is atomics only, preserving the
	// no-new-locks contract of the sharded path.
	span *telemetry.Span
	// fsym is the node's interned flight-journal symbol, resolved once at
	// registration so journal appends on the ingest path never touch the
	// intern table (or any string).
	fsym flight.Sym
	// down tracks the presumed-down edge (for the down-detection counter);
	// atomic so Status can flip it under the record's read lock.
	down atomic.Bool

	// Loss-tolerant delta protocol state (guarded by mu). wireSeq is the
	// highest sequence number applied; diverged is set between a detected
	// gap (a lost delta means the registry no longer mirrors the agent)
	// and the healing snapshot. The small counters feed the ctl "sync"
	// verb; process-wide totals live in the striped telemetry counters.
	wireSeq     uint64
	diverged    bool
	gaps        int64
	regressions int64
	resyncReqs  int64
	snapshots   int64
}

// ErrResyncNeeded is returned by HandleFrame when a sequence gap (or an
// agent restart) means the server's view of the node may have silently
// diverged: the transport should relay a resync request so the agent
// ships a full snapshot.
var ErrResyncNeeded = errors.New("core: node state diverged, full snapshot needed")

// probeMetric is the one server-side metric stored alongside agent data
// (written by ProbeConnectivity); snapshot replacement must not drop it,
// because the agent does not know about it.
const probeMetric = "net.echo.ok"

// SyncState is one node's loss-tolerant protocol state, for the ctl
// "sync" verb and the fault-injection harness.
type SyncState struct {
	Node        string
	Seq         uint64 // highest applied sequence number (0: unsequenced)
	Synced      bool   // false between a detected gap and the healing snapshot
	Gaps        int64  // sequence gaps observed (lost frames)
	Regressions int64  // sequence regressions observed (agent restarts)
	ResyncReqs  int64  // resync requests issued
	Snapshots   int64  // snapshot frames applied
}

// samplePool recycles the observation snapshots handed to the event
// engine, keeping the ingest hot path allocation-free without holding any
// server lock across rule plugins or notifier callbacks.
var samplePool = sync.Pool{
	New: func() any { return make(map[string]float64, 16) },
}

// shardIndex hashes a node name to its stripe with FNV-1a.
//
//cwx:hotpath
func shardIndex(name string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	return h & (ingestShards - 1)
}

// ServerConfig configures a Server.
type ServerConfig struct {
	Cluster  string
	Now      func() time.Duration // time source (virtual in simulation)
	Notifier *notify.Notifier     // optional; engine runs without it
	// HistoryCapacity is the default retained-point capacity — the ring
	// depth — of new history series (0 = history.DefaultCapacity). It
	// bounds how much a series may come to hold, not what it costs while
	// young.
	HistoryCapacity int
}

// NewServer builds a server with an empty registry.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Now == nil {
		start := time.Now()
		cfg.Now = func() time.Duration { return time.Since(start) }
	}
	if cfg.Cluster == "" {
		cfg.Cluster = "cluster"
	}
	s := &Server{
		now:      cfg.Now,
		cluster:  cfg.Cluster,
		hist:     history.NewStore(cfg.HistoryCapacity),
		notifier: cfg.Notifier,
		boxByID:  make(map[string]*icebox.Box),
		images:   image.NewStore(),
		firmware: make(map[string]firmware.Firmware),
	}
	for i := range s.shards {
		s.shards[i].nodes = make(map[string]*nodeRec)
	}
	s.probeID = s.hist.MetricID(probeMetric)
	for i, name := range [...]string{"load.1", "hw.temp.cpu", "mem.used.pct"} {
		s.statusIDs[i] = s.hist.MetricID(name)
	}
	var ntf events.Notifier
	if cfg.Notifier != nil {
		ntf = cfg.Notifier
	}
	s.engine = events.New(serverActuator{s}, ntf, cfg.Now)
	s.plane = newPlane(s)
	return s
}

// Generation is the global serving-plane generation: the sum of the
// per-shard ingest counters. Each stripe is monotone, so the sum is
// unchanged iff no stripe changed; a cached answer tagged with it is
// valid exactly as long as no input anywhere has moved.
//
//cwx:hotpath
func (s *Server) Generation() uint64 {
	var g uint64
	for i := range s.gens {
		g += s.gens[i].v.Load()
	}
	return g
}

// bumpIngest publishes an ingest for nodeName's stripe to the serving
// plane. Callers must invoke it strictly after the data mutation is
// visible (after releasing the record lock): a reader that observes the
// new generation then rebuilds against the new values, so a cached
// answer can never be stale forever.
//
//cwx:hotpath
func (s *Server) bumpIngest(shard uint32, now time.Duration) {
	s.lastDataNs.Store(int64(now))
	s.gens[shard].v.Add(1)
	s.watchSig.Wake()
}

// Cluster returns the cluster name.
func (s *Server) Cluster() string { return s.cluster }

// Engine exposes the event engine for rule administration.
func (s *Server) Engine() *events.Engine { return s.engine }

// History exposes the historical store.
func (s *Server) History() *history.Store { return s.hist }

// Images exposes the image library.
func (s *Server) Images() *image.Store { return s.images }

// AddICEBox registers a management device.
func (s *Server) AddICEBox(b *icebox.Box) {
	s.mu.Lock()
	s.boxes = append(s.boxes, b)
	s.boxByID[b.ID()] = b
	s.mu.Unlock()
}

// ICEBoxes returns the registered devices.
func (s *Server) ICEBoxes() []*icebox.Box {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*icebox.Box(nil), s.boxes...)
}

// RegisterNode pre-creates a registry entry (agents also auto-register on
// first data).
func (s *Server) RegisterNode(name string) {
	s.node(name)
}

// node returns the record for name, creating it if needed. The fast path
// is a single read-locked map lookup on the name's stripe.
func (s *Server) node(name string) *nodeRec {
	idx := shardIndex(name)
	sh := &s.shards[idx]
	sh.mu.RLock()
	rec := sh.nodes[name]
	sh.mu.RUnlock()
	if rec != nil {
		return rec
	}
	// The history store has its own stripes; the node's slab is found (or
	// made) before the shard lock is taken, not under it.
	hist := s.hist.Node(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rec = sh.nodes[name]; rec == nil {
		rec = &nodeRec{
			name:  name,
			hist:  hist,
			shard: idx,
			span:  telemetry.Spans.Slot(name),
			fsym:  fjournal.Sym(name),
		}
		sh.nodes[name] = rec
		mIngestRegistered.Inc()
		// A registration changes every roster-derived view; readers racing
		// this bump serialize on the stripe lock and see the new record.
		s.regGen.Add(1)
		s.gens[idx].v.Add(1)
		s.watchSig.Wake()
	}
	return rec
}

// lookup returns the record for name without creating it.
//
//cwx:hotpath
func (s *Server) lookup(name string) (*nodeRec, bool) {
	sh := &s.shards[shardIndex(name)]
	sh.mu.RLock()
	rec := sh.nodes[name]
	sh.mu.RUnlock()
	return rec, rec != nil
}

// HandleValues ingests one unsequenced agent transmission (a change
// set). It is the legacy entry point: HandleFrame with a zero sequence
// number, which never detects gaps and never requests a resync.
//
//cwx:hotpath
func (s *Server) HandleValues(nodeName string, values []consolidate.Value) {
	s.HandleFrame(transmit.Frame{Node: nodeName, Kind: transmit.FrameDelta, Values: values}) //nolint:errcheck // unsequenced frames never need resync
}

// HandleFrame ingests one agent transmission: it updates the live
// registry, appends numeric values to history, and runs the event engine
// over the node's updated state. Unregistered nodes auto-register; the
// record mutation holds only the node's own lock (plus a read-locked
// stripe lookup), so concurrent updates for different nodes never contend
// and read-side APIs stay responsive during ingest. Event evaluation runs
// with no server lock held at all, so rule plugins and notifier callbacks
// may call back into the server freely — including re-ingesting values
// for the very node under evaluation.
//
// Sequenced frames (Seq > 0) get gap detection: a delta arriving out of
// order means at least one change set was lost in flight, and — because
// change suppression never resends an unchanged value — the registry
// would silently diverge from the node forever. The frame is still
// applied (fresh data beats none), but the node is marked diverged and
// HandleFrame returns ErrResyncNeeded until a snapshot frame restores a
// byte-identical view. Snapshot frames replace the node's agent-side
// state wholesale.
//
//cwx:hotpath
func (s *Server) HandleFrame(f transmit.Frame) error {
	// Telemetry on this path is atomics only, striped by the node's shard
	// index so concurrent agents land on distinct counter cache lines;
	// latency is wall-clock (s.now is virtual in simulation).
	on := telemetry.On()
	var t0 time.Time
	if on {
		t0 = time.Now() //cwx:allow clockdet -- ingest latency measures real CPU cost; s.now is the virtual clock
	}
	now := s.now()
	rec := s.node(f.Node)
	rec.mu.Lock()
	rec.lastSeen = now
	rec.seen = true
	resync := false
	if f.Seq > 0 {
		prev := rec.wireSeq
		switch {
		case f.Kind == transmit.FrameSnapshot:
			// Authoritative full state: heals any divergence and adopts
			// the agent's numbering, wherever it is.
			rec.wireSeq = f.Seq
			rec.diverged = false
			rec.snapshots++
		case f.Seq == rec.wireSeq+1:
			rec.wireSeq = f.Seq
			// An in-order delta on a diverged node does not heal it: the
			// lost values are still lost. Keep asking, in case the
			// earlier resync request itself was dropped.
			resync = rec.diverged
		case f.Seq > rec.wireSeq+1:
			rec.gaps++
			rec.wireSeq = f.Seq
			rec.diverged = true
			resync = true
			mIngestSeqGaps.IncAt(int(rec.shard))
			fjournal.Append(int(rec.shard), flight.Entry{Kind: flight.KindGap, Node: rec.fsym, Trace: f.TraceID, TimeNs: int64(now), A: int64(prev), B: int64(f.Seq)})
		default: // f.Seq <= rec.wireSeq: the agent restarted its numbering
			rec.regressions++
			rec.wireSeq = f.Seq
			rec.diverged = true
			resync = true
			mIngestSeqRegressions.IncAt(int(rec.shard))
			fjournal.Append(int(rec.shard), flight.Entry{Kind: flight.KindRegression, Node: rec.fsym, Trace: f.TraceID, TimeNs: int64(now), A: int64(prev), B: int64(f.Seq)})
		}
		if resync {
			rec.resyncReqs++
		}
	}
	if f.Kind == transmit.FrameSnapshot {
		// An authoritative snapshot heals divergence whether or not it is
		// sequenced: batch-uplink sub-frames carry Seq 0 (continuity is
		// link-level there), and a v1 uplink session that upgraded to
		// batches mid-divergence must not stay marked unsynced forever.
		rec.diverged = false
		s.applySnapshotLocked(rec, f.Values, now)
		mIngestSnapshots.IncAt(int(rec.shard))
		fjournal.Append(int(rec.shard), flight.Entry{Kind: flight.KindSnapApplied, Node: rec.fsym, Trace: f.TraceID, TimeNs: int64(now), A: int64(len(f.Values))})
	} else {
		for k := range f.Values {
			v := &f.Values[k]
			id := s.hist.MetricID(v.Name)
			i, _ := s.slotLocked(rec, id, f.Values[k:])
			rec.store(i, v)
			if !v.IsText {
				rec.hist.Append(id, now, v.Num)
			}
		}
	}
	snap := s.observationSnapshot(rec)
	rec.mu.Unlock()
	s.bumpIngest(rec.shard, now)
	if u := s.uplink.Load(); u != nil {
		// Federation: note the change set dirty for the next uplink flush
		// (per-hop suppression — only what changed here flows upstream).
		u.noteFrame(&f)
	}
	// t1 doubles as ingest-latency end and events-dwell start — one
	// clock read, not two.
	var t1 time.Time
	var lat time.Duration
	if on {
		t1 = time.Now() //cwx:allow clockdet,hotpath -- one deliberate second read: ingest-latency end doubles as events-dwell start
		lat = t1.Sub(t0)
		stripe := int(rec.shard)
		mIngestUpdates.IncAt(stripe)
		mIngestValues.AddAt(stripe, int64(len(f.Values)))
		mIngestLatencyNs.ObserveTraceAt(stripe, int64(lat), f.TraceID)
		mIngestBatch.ObserveAt(stripe, int64(len(f.Values)))
		rec.span.RecordTraced(telemetry.StageIngest, lat, int64(len(f.Values)), f.TraceID)
	}
	if f.TraceID != 0 {
		// The sampled frame's ingest hop. lat is 0 with telemetry off —
		// the journal still places the hop in the tree, just unmeasured.
		fjournal.Append(int(rec.shard), flight.Entry{Kind: flight.KindStage, Stage: uint8(telemetry.StageIngest), Node: rec.fsym, Trace: f.TraceID, TimeNs: int64(now), A: int64(lat), B: int64(len(f.Values))})
	}
	s.observe(f.Node, rec, snap, t1, on, f.TraceID)
	if resync {
		mIngestResyncReqs.IncAt(int(rec.shard))
		// The back-channel resync request leaves here (as ErrResyncNeeded
		// to the transport); paired with the agent's resync-recv record it
		// shows whether the request survived the return path.
		fjournal.Append(int(rec.shard), flight.Entry{Kind: flight.KindResyncSent, Node: rec.fsym, Trace: f.TraceID, TimeNs: int64(now)})
		return ErrResyncNeeded
	}
	return nil
}

// slotLocked returns the slot of metric id in rec's columns, opening one
// if the node did not hold the metric; had reports which. rest is what
// remains of the frame being applied, the value for id first (nil: that
// value alone): when the columns are full they grow once, by the slots
// rest will need. Caller holds rec.mu.
//
//cwx:hotpath
func (s *Server) slotLocked(rec *nodeRec, id uint32, rest []consolidate.Value) (i int, had bool) {
	if i, had = rec.find(id); !had {
		s.openSlotLocked(rec, i, id, rest)
	}
	return i, had
}

// openSlotLocked is slotLocked's miss, out of line: it runs the first
// time a node reports a metric.
func (s *Server) openSlotLocked(rec *nodeRec, i int, id uint32, rest []consolidate.Value) {
	if len(rec.ids) == cap(rec.ids) {
		missing := 0
		for k := range rest {
			if _, had := rec.find(s.hist.MetricID(rest[k].Name)); !had {
				missing++
			}
		}
		rec.grow(max(missing, 1))
	}
	rec.insert(i, id)
}

// applySnapshotLocked replaces rec's agent-side state with a full
// snapshot: present values are upserted (history only records actual
// changes, so an anti-entropy refresh of an idle node appends nothing),
// and metrics the snapshot no longer carries are dropped — they vanished
// on the agent — except the server-side probe metric. Caller holds
// rec.mu.
func (s *Server) applySnapshotLocked(rec *nodeRec, values []consolidate.Value, now time.Duration) {
	for k := range values {
		v := &values[k]
		id := s.hist.MetricID(v.Name)
		i, had := s.slotLocked(rec, id, values[k:])
		if !v.IsText && !(had && rec.sameAt(i, v)) {
			rec.hist.Append(id, now, v.Num)
		}
		rec.store(i, v)
		rec.flags[i] |= slotMarked
	}
	rec.sweepUnmarked(s.probeID)
}

// SyncStates reports every node's delta-protocol state, sorted by name.
func (s *Server) SyncStates() []SyncState {
	recs := s.allRecs()
	out := make([]SyncState, 0, len(recs))
	for _, rec := range recs {
		rec.mu.RLock()
		out = append(out, SyncState{
			Node:        rec.name,
			Seq:         rec.wireSeq,
			Synced:      !rec.diverged,
			Gaps:        rec.gaps,
			Regressions: rec.regressions,
			ResyncReqs:  rec.resyncReqs,
			Snapshots:   rec.snapshots,
		})
		rec.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// observationSnapshot copies rec's numeric values into a pooled map,
// keyed by the metric table's names, so the engine can evaluate the
// node's full current numeric state (rules on metrics that did not
// change this round still hold) after every lock is released. Caller
// must hold rec.mu. Returns nil when no rules are installed — the engine
// would not look at the snapshot anyway.
//
//cwx:hotpath
func (s *Server) observationSnapshot(rec *nodeRec) map[string]float64 {
	if !s.engine.HasRules() {
		return nil
	}
	snap := samplePool.Get().(map[string]float64)
	for i, id := range rec.ids {
		if rec.flags[i]&slotText == 0 {
			snap[s.hist.MetricName(id)] = rec.nums[i]
		}
	}
	return snap
}

// observe runs the event engine over a snapshot and recycles it. The
// engine does not retain the map past ObserveMap, so it can go straight
// back to the pool. The dwell — how long rule evaluation (including any
// inline actions) held up this ingest goroutine, measured from e0 (the
// caller's post-ingest timestamp, when on) — lands in the node's
// pipeline span and a striped histogram.
//
//cwx:hotpath
func (s *Server) observe(nodeName string, rec *nodeRec, snap map[string]float64, e0 time.Time, on bool, trace uint64) {
	if snap == nil {
		return
	}
	var dwell time.Duration
	if on {
		s.engine.ObserveMap(nodeName, snap)
		dwell = time.Since(e0) //cwx:allow clockdet -- dwell measures real rule-evaluation cost, paired with HandleFrame's t1
		mEventsDwellNs.ObserveAt(int(rec.shard), int64(dwell))
		rec.span.RecordTraced(telemetry.StageEvents, dwell, int64(len(snap)), trace)
	} else {
		s.engine.ObserveMap(nodeName, snap)
	}
	if trace != 0 {
		fjournal.Append(int(rec.shard), flight.Entry{Kind: flight.KindStage, Stage: uint8(telemetry.StageEvents), Node: rec.fsym, Trace: trace, TimeNs: int64(s.now()), A: int64(dwell), B: int64(len(snap))})
	}
	clear(snap)
	samplePool.Put(snap)
}

// ProbeConnectivity runs the server-side UDP-echo connectivity sweep
// (§5.1: "the UDP echo port is used to ensure network connectivity").
// Unlike agent data this is measured *at* the server, so it is the one
// monitor value that keeps arriving for a dead node — which is exactly
// what lets an event rule like "net.echo.ok < 1 -> power-cycle" heal a
// wedged node automatically. The probe result does not refresh the node's
// lastSeen: only agent data proves the OS is alive.
func (s *Server) ProbeConnectivity(probe func(node string) bool) {
	now := s.now()
	for _, name := range s.NodeNames() {
		ok := probe(name)
		v := consolidate.NumValue(probeMetric, consolidate.Dynamic, 0)
		if ok {
			v.Num = 1
		}
		rec := s.node(name)
		rec.mu.Lock()
		i, had := s.slotLocked(rec, s.probeID, nil)
		changed := !had || !rec.sameAt(i, &v)
		rec.store(i, &v)
		rec.hist.Append(s.probeID, now, v.Num)
		snap := s.observationSnapshot(rec)
		rec.mu.Unlock()
		s.bumpIngest(rec.shard, now)
		if u := s.uplink.Load(); u != nil && changed {
			// Probe flips are change-gated so a healthy subtree's sweep adds
			// zero uplink traffic (per-hop suppression holds server-side too).
			u.noteValue(name, probeMetric)
		}
		on := telemetry.On()
		var e0 time.Time
		if on {
			e0 = time.Now() //cwx:allow clockdet -- events-dwell telemetry; probe scheduling itself uses s.now
		}
		s.observe(name, rec, snap, e0, on, 0)
	}
}

// allRecs collects every record across the stripes (unsorted). Each
// stripe is only read-locked for the duration of its own scan, so ingest
// proceeds on the other stripes meanwhile.
func (s *Server) allRecs() []*nodeRec {
	out := make([]*nodeRec, 0, 64)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.nodes {
			out = append(out, rec)
		}
		sh.mu.RUnlock()
	}
	return out
}

// rosterByName returns every node record in name order: the walk for
// anything whose output must not depend on the node table's map order.
func (s *Server) rosterByName() []*nodeRec {
	recs := s.allRecs()
	slices.SortFunc(recs, func(a, b *nodeRec) int { return strings.Compare(a.name, b.name) })
	return recs
}

// NodeNames returns all registered nodes, sorted.
func (s *Server) NodeNames() []string {
	recs := s.allRecs()
	out := make([]string, 0, len(recs))
	for _, rec := range recs {
		out = append(out, rec.name)
	}
	sort.Strings(out)
	return out
}

// NodeValue returns a node's current value for a metric.
func (s *Server) NodeValue(nodeName, metric string) (consolidate.Value, bool) {
	rec, ok := s.lookup(nodeName)
	if !ok {
		return consolidate.Value{}, false
	}
	rec.mu.RLock()
	defer rec.mu.RUnlock()
	return s.valueLocked(rec, metric)
}

// valueLocked returns rec's value for a metric named by whoever is
// asking: a name the table has never seen is held by nobody, and is not
// added. Caller holds rec.mu.
func (s *Server) valueLocked(rec *nodeRec, metric string) (consolidate.Value, bool) {
	if id, ok := s.hist.LookupMetric(metric); ok {
		if i, ok := rec.find(id); ok {
			return rec.load(i, s.hist.MetricName(id)), true
		}
	}
	return consolidate.Value{}, false
}

// NodeValues returns a sorted snapshot of a node's current values.
func (s *Server) NodeValues(nodeName string) []consolidate.Value {
	rec, ok := s.lookup(nodeName)
	if !ok {
		return nil
	}
	rec.mu.RLock()
	out := s.appendValuesLocked(make([]consolidate.Value, 0, len(rec.ids)), rec)
	rec.mu.RUnlock()
	slices.SortFunc(out, func(a, b consolidate.Value) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// appendValuesLocked appends every value rec holds to dst, in id order.
// Caller holds rec.mu.
func (s *Server) appendValuesLocked(dst []consolidate.Value, rec *nodeRec) []consolidate.Value {
	for i, id := range rec.ids {
		dst = append(dst, rec.load(i, s.hist.MetricName(id)))
	}
	return dst
}

// Status renders the monitoring screen rows. It answers from the serving
// plane's generation-gated snapshot: a hit is a lock-free atomic load
// sharing one immutable row slice (read-only to callers) across every
// reader, rebuilt only when ingest moved the generation or a liveness
// deadline passed. Down transitions are counted inside the rebuild, so
// a node seen alive that falls silent past DownAfter still bumps the
// detection counter exactly once per outage.
//
//cwx:hotpath
func (s *Server) Status() []NodeStatus {
	return s.plane.status.Get().rows
}

// --- ICE Box fronting ------------------------------------------------------------

// findPort locates the ICE Box and port controlling a node.
func (s *Server) findPort(nodeName string) (*icebox.Box, int, error) {
	s.mu.Lock()
	boxes := append([]*icebox.Box(nil), s.boxes...)
	s.mu.Unlock()
	for _, b := range boxes {
		if port, ok := b.FindPort(nodeName); ok {
			return b, port, nil
		}
	}
	return nil, 0, fmt.Errorf("core: no ICE Box port for node %s", nodeName)
}

// PowerOn energizes a node's outlet.
func (s *Server) PowerOn(nodeName string) error {
	b, port, err := s.findPort(nodeName)
	if err != nil {
		return err
	}
	return b.PowerOn(port)
}

// PowerOff cuts a node's outlet.
func (s *Server) PowerOff(nodeName string) error {
	b, port, err := s.findPort(nodeName)
	if err != nil {
		return err
	}
	return b.PowerOff(port)
}

// PowerCycle cycles a node's outlet.
func (s *Server) PowerCycle(nodeName string) error {
	b, port, err := s.findPort(nodeName)
	if err != nil {
		return err
	}
	return b.PowerCycle(port)
}

// Reset pulses a node's reset line.
func (s *Server) Reset(nodeName string) error {
	b, port, err := s.findPort(nodeName)
	if err != nil {
		return err
	}
	return b.Reset(port)
}

// Console returns a node's post-mortem serial buffer.
func (s *Server) Console(nodeName string) ([]byte, error) {
	b, port, err := s.findPort(nodeName)
	if err != nil {
		return nil, err
	}
	return b.Console(port)
}

// SetCloner installs the disk-cloning backend invoked by the control
// protocol's "clone" request. The callback returns a human-readable
// summary. In the simulation it is Sim.Clone; a hardware deployment would
// boot targets into the cloning environment here.
func (s *Server) SetCloner(fn func(imageID string, nodes []string) (string, error)) {
	s.mu.Lock()
	s.cloner = fn
	s.mu.Unlock()
}

// CloneNodes runs the installed cloner.
func (s *Server) CloneNodes(imageID string, nodes []string) (string, error) {
	s.mu.Lock()
	fn := s.cloner
	s.mu.Unlock()
	if fn == nil {
		return "", fmt.Errorf("core: no cloning backend installed")
	}
	if _, ok := s.images.Get(imageID); !ok {
		return "", fmt.Errorf("core: unknown image %s (see 'images')", imageID)
	}
	return fn(imageID, nodes)
}

// RegisterFirmware records which firmware a node runs so the remote BIOS
// management commands (§2) can reach it.
func (s *Server) RegisterFirmware(nodeName string, fw firmware.Firmware) {
	s.mu.Lock()
	s.firmware[nodeName] = fw
	s.mu.Unlock()
}

// biosFor returns a node's remotely-manageable firmware. A legacy BIOS is
// the paper's §2 pain point: "imagine walking around with a keyboard and
// monitor to every one of the 1000 nodes" — it cannot be managed here.
func (s *Server) biosFor(nodeName string) (*firmware.LinuxBIOS, error) {
	s.mu.Lock()
	fw, ok := s.firmware[nodeName]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no firmware registered for %s", nodeName)
	}
	lb, ok := fw.(*firmware.LinuxBIOS)
	if !ok {
		return nil, fmt.Errorf("core: %s runs %s, which is not remotely configurable (bring a keyboard and monitor)", nodeName, fw.Name())
	}
	return lb, nil
}

// BIOSSettings dumps a node's firmware settings.
func (s *Server) BIOSSettings(nodeName string) ([]string, error) {
	lb, err := s.biosFor(nodeName)
	if err != nil {
		return nil, err
	}
	return append([]string{"version=" + lb.Version()}, lb.Settings()...), nil
}

// BIOSSet changes a firmware setting remotely; it becomes active "as soon
// as the nodes are rebooted" (§2).
func (s *Server) BIOSSet(nodeName, key, value string) error {
	lb, err := s.biosFor(nodeName)
	if err != nil {
		return err
	}
	lb.Set(key, value)
	return nil
}

// BIOSFlash installs a new firmware release on a node remotely.
func (s *Server) BIOSFlash(nodeName, version string) error {
	lb, err := s.biosFor(nodeName)
	if err != nil {
		return err
	}
	lb.Flash(version)
	return nil
}

// serverActuator adapts the server's ICE Box fronting to events.Actuator.
// Halt is delivered as a power-off: with the OS possibly wedged, the
// outlet is the only reliable lever.
type serverActuator struct{ s *Server }

func (a serverActuator) PowerOff(node string) error   { return a.s.PowerOff(node) }
func (a serverActuator) PowerCycle(node string) error { return a.s.PowerCycle(node) }
func (a serverActuator) Reset(node string) error      { return a.s.Reset(node) }
func (a serverActuator) Halt(node string) error       { return a.s.PowerOff(node) }
