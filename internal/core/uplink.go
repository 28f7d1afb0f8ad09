package core

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/flight"
	"clusterworx/internal/transmit"
)

// This file is the child side of hierarchical federation: a leaf (or
// mid-tier) Server ingests its local agents normally, and an attached
// Uplink forwards the *consolidated* change stream to a parent Server
// one tier up. The design goals, in order:
//
//   - Per-hop delta suppression. Ingest marks exactly the values a frame
//     changed dirty (noteFrame below, called from HandleFrame after the
//     record lock is released); a periodic Flush forwards only those.
//     Idle nodes cost zero uplink bytes, and a value that changed five
//     times between flushes crosses the hop once — the same consolidation
//     the paper applies between agent and server, reapplied between tiers.
//
//   - Batching. One v2 batch frame carries hundreds of node sections
//     (internal/transmit/batchv2.go) sharing a single dictionary,
//     predictor chain, and timestamp column, so the per-node wire cost is
//     a few bytes instead of a full frame header and dictionary handshake.
//
//   - Loss tolerance without per-node sequencing. The batch chain is
//     sequenced per *link*; when the parent detects a break it answers
//     "!uresync" and the child arms a snap-all — every node's full state
//     goes up in the next flush, healing any suppressed-delta loss in one
//     round trip. A v1-pinned parent falls back to per-node sequenced
//     frames and the classic gap→resync→snapshot machinery.
//
// Locking: the dirty stripes (uplinkdirty, 17) are taken from the ingest
// path with no other lock held (HandleFrame releases the record lock
// first) and sit above the session lock (uplinksess, 16) so Flush may
// re-mark failed nodes while winding down a send. Flush reads record
// state (record, 20) strictly before taking the session lock.

// uplinkStripes matches ingestShards so noteFrame can reuse the node's
// shard hash as its dirty-stripe index.
const uplinkStripes = ingestShards

// maxBatch bounds node sections per batch frame: big enough to
// amortize the header, small enough that one frame is not megabytes on a
// 10k-leaf subtree.
const maxBatch = 512

// uplinkDirtyNode accumulates one node's not-yet-forwarded changes. The
// entry persists for the node's lifetime (maps and slices are reused),
// so steady-state marking allocates nothing.
type uplinkDirtyNode struct {
	name string
	// snap forces a full snapshot upstream: set on local snapshot ingest
	// (the change set is unknowable — the frame replaced state wholesale)
	// and on parent-requested per-node resyncs.
	snap    bool
	names   map[string]struct{} // changed value names since the last flush
	traceID uint64              // most recent trace context through this node
	traceNs int64
	queued  bool // already on the stripe's pending list
}

// resetLocked clears the accumulated change set after a drain. Caller
// holds the stripe lock.
func (dn *uplinkDirtyNode) resetLocked() {
	clear(dn.names)
	dn.snap = false
	dn.traceID, dn.traceNs = 0, 0
	dn.queued = false
}

// uplinkStripe is one shard of the dirty set, striped like the node
// table so concurrent ingest marks different stripes without contention.
type uplinkStripe struct {
	mu      sync.Mutex //cwx:lockrank uplinkdirty 17
	nodes   map[string]*uplinkDirtyNode
	pending []*uplinkDirtyNode
}

// getLocked returns the persistent dirty entry for name, creating it on
// first sight. Kept out of the hot marking functions so their steady
// state stays allocation-free. Caller holds the stripe lock.
func (st *uplinkStripe) getLocked(name string) *uplinkDirtyNode {
	dn := st.nodes[name]
	if dn == nil {
		dn = &uplinkDirtyNode{name: name, names: make(map[string]struct{}, 8)}
		st.nodes[name] = dn
	}
	return dn
}

// UplinkConfig configures a child→parent federation session.
type UplinkConfig struct {
	// Name identifies this child in flight-journal records (defaults to
	// the server's cluster name).
	Name string
	// Send ships one wire payload to the parent. The payload is scratch-
	// backed and must be consumed (or copied) synchronously. An error
	// means the parent may not have seen the frame; the uplink rebases
	// and re-marks the affected nodes for snapshots.
	Send func(payload []byte) error
	// V1Only pins the session to v1 per-node sequenced frames, as a child
	// built before the batch wire would send them (SimConfig.UplinkV1
	// models such peers).
	V1Only bool
	// AntiEntropy, when non-zero, forces a periodic snap-all flush so a
	// silently wedged parent re-converges without waiting for a chain
	// break to be noticed.
	AntiEntropy time.Duration
}

// UplinkStats is a counter snapshot of a session's forwarding activity.
type UplinkStats struct {
	Frames         int64 // v2 batch frames sent
	V1Frames       int64 // v1 per-node frames sent
	Nodes          int64 // node sub-frames forwarded (all wire versions)
	Bytes          int64 // payload bytes handed to Send
	SendFails      int64
	TracedForwards int64 // sub-frames forwarded carrying a trace id
	SnapAlls       int64 // snap-all flushes (start, "!uresync", anti-entropy)
	ResyncsRecv    int64 // "!uresync" / "!wreset" controls received
	NodeResyncs    int64 // per-node "!resync" requests received (v1 sessions)
	V2             bool  // session upgraded to the batch wire
}

// Uplink is one child server's session to its parent tier. Attach with
// Server.SetUplink; drive with periodic Flush calls (one goroutine — or
// one timer chain — at a time; the marking side is fully concurrent).
type Uplink struct {
	s   *Server
	cfg UplinkConfig
	sym flight.Sym

	stripes [uplinkStripes]uplinkStripe

	// mu guards the wire-session state: negotiation, encoder chain,
	// sequence numbers, and the stats the control plane reads.
	mu         sync.Mutex //cwx:lockrank uplinksess 16
	offer      bool       // still offering v2 via v1 frame options
	v2         bool       // parent answered; batch wire active
	enc        *transmit.BatchEncoderV2
	seq        uint64            // batch link sequence (last sent)
	nodeSeq    map[string]uint64 // v1 fallback per-node sequences
	snapAll    bool              // next flush forwards full state for every node
	lastSnapNs int64
	stats      UplinkStats

	// Flush scratch, reused across calls (single-flusher contract).
	ents   []flushEnt
	nbuf   []string
	vbuf   []consolidate.Value
	frames []transmit.Frame
	buf    []byte
	remark []string
}

// flushEnt is one node's slot in the flush scratch: the drained dirty
// metadata plus index ranges into the shared name/value buffers (ranges,
// not slices, because the buffers may reallocate while later entries are
// appended).
type flushEnt struct {
	name         string
	snap         bool
	traceID      uint64
	traceNs      int64
	nstart, nend int // dirty value names in nbuf (delta entries)
	vstart, vend int // collected values in vbuf
}

// NewUplink builds a session forwarding s's ingest stream upstream. The
// first flush is always a snap-all: the parent starts from nothing.
func NewUplink(s *Server, cfg UplinkConfig) *Uplink {
	if cfg.Send == nil {
		panic("core: UplinkConfig.Send is required")
	}
	if cfg.Name == "" {
		cfg.Name = s.cluster
	}
	u := &Uplink{
		s:       s,
		cfg:     cfg,
		sym:     fjournal.Sym(cfg.Name),
		offer:   !cfg.V1Only,
		snapAll: true,
		nodeSeq: make(map[string]uint64),
	}
	for i := range u.stripes {
		u.stripes[i].nodes = make(map[string]*uplinkDirtyNode)
	}
	return u
}

// SetUplink attaches (or with nil detaches) the server's parent session.
// Ingest begins marking the dirty set immediately.
func (s *Server) SetUplink(u *Uplink) { s.uplink.Store(u) }

// UplinkSession returns the attached parent session, or nil.
func (s *Server) UplinkSession() *Uplink { return s.uplink.Load() }

// noteFrame marks an applied frame's change set dirty. Called from the
// ingest path with no locks held; the self-monitor node stays local —
// every tier has its own, and forwarding it would collide upstream.
//
//cwx:hotpath
func (u *Uplink) noteFrame(f *transmit.Frame) {
	if f.Node == MetaNodeName {
		return
	}
	st := &u.stripes[shardIndex(f.Node)]
	st.mu.Lock()
	dn := st.getLocked(f.Node) //cwx:allow staticalloc -- inlined first-sight registration; the entry persists for the node's lifetime and steady-state marking hits the map
	if !dn.queued {
		dn.queued = true
		st.pending = append(st.pending, dn)
	}
	if f.Kind == transmit.FrameSnapshot {
		// A snapshot replaced state wholesale; the precise change set is
		// unknowable, so the node goes up as a snapshot too.
		dn.snap = true
	} else if !dn.snap {
		for i := range f.Values {
			dn.names[f.Values[i].Name] = struct{}{}
		}
	}
	if f.TraceID != 0 {
		dn.traceID, dn.traceNs = f.TraceID, f.TraceNs
	}
	st.mu.Unlock()
}

// noteValue marks a single server-side value change dirty (the
// connectivity probe path).
//
//cwx:hotpath
func (u *Uplink) noteValue(node, metric string) {
	st := &u.stripes[shardIndex(node)]
	st.mu.Lock()
	dn := st.getLocked(node) //cwx:allow staticalloc -- inlined first-sight registration; the entry persists for the node's lifetime and steady-state marking hits the map
	if !dn.queued {
		dn.queued = true
		st.pending = append(st.pending, dn)
	}
	if !dn.snap {
		dn.names[metric] = struct{}{}
	}
	st.mu.Unlock()
}

// markSnapNode queues a full-snapshot forward for one node (parent
// resync requests, failed sends).
func (u *Uplink) markSnapNode(node string) {
	st := &u.stripes[shardIndex(node)]
	st.mu.Lock()
	dn := st.getLocked(node)
	if !dn.queued {
		dn.queued = true
		st.pending = append(st.pending, dn)
	}
	dn.snap = true
	st.mu.Unlock()
}

// Flush drains the dirty set and forwards it upstream, batched. nowNs is
// the child's virtual-clock reading (stamped into the shared timestamp
// column upstream). It returns the number of node sub-frames sent and
// the first send error. Call from one goroutine at a time.
func (u *Uplink) Flush(nowNs int64) (int, error) {
	u.mu.Lock()
	snapAll := u.snapAll
	if !snapAll && u.cfg.AntiEntropy > 0 && nowNs-u.lastSnapNs >= int64(u.cfg.AntiEntropy) {
		snapAll = true
	}
	if snapAll {
		u.snapAll = false
		u.lastSnapNs = nowNs
		u.stats.SnapAlls++
		mUplinkSnapAlls.Inc()
		fjournal.Append(int(u.sym), flight.Entry{Kind: flight.KindUplinkResync, Node: u.sym, TimeNs: nowNs, A: 1})
	}
	v2 := u.v2 && !u.cfg.V1Only
	u.mu.Unlock()

	u.drain(snapAll)
	u.build()
	if len(u.frames) == 0 {
		return 0, nil
	}
	var sent int
	var err error
	if v2 {
		sent, err = u.sendBatches(nowNs)
	} else {
		sent, err = u.sendV1(nowNs)
	}
	for _, name := range u.remark {
		u.markSnapNode(name)
	}
	u.remark = u.remark[:0]
	return sent, err
}

// drain moves the dirty set into the flush scratch and clears it. With
// snapAll it instead enumerates the full registry (subsuming any finer
// dirty state, which is discarded).
func (u *Uplink) drain(snapAll bool) {
	u.ents = u.ents[:0]
	u.nbuf = u.nbuf[:0]
	for i := range u.stripes {
		st := &u.stripes[i]
		st.mu.Lock()
		for _, dn := range st.pending {
			if !snapAll {
				ent := flushEnt{name: dn.name, snap: dn.snap, traceID: dn.traceID, traceNs: dn.traceNs}
				if !dn.snap {
					ent.nstart = len(u.nbuf)
					for vn := range dn.names {
						u.nbuf = append(u.nbuf, vn)
					}
					ent.nend = len(u.nbuf)
				}
				u.ents = append(u.ents, ent)
			}
			dn.resetLocked()
		}
		st.pending = st.pending[:0]
		st.mu.Unlock()
	}
	if !snapAll {
		return
	}
	for i := range u.s.shards {
		sh := &u.s.shards[i]
		sh.mu.RLock()
		for name := range sh.nodes {
			if name == MetaNodeName {
				continue
			}
			u.ents = append(u.ents, flushEnt{name: name, snap: true})
		}
		sh.mu.RUnlock()
	}
	// The node tables are maps; see build for why the order is pinned.
	slices.SortFunc(u.ents, func(a, b flushEnt) int { return strings.Compare(a.name, b.name) })
}

// build reads the drained nodes' current values out of the registry into
// the flush scratch and assembles the sub-frames. Dirty names whose
// values vanished meanwhile (a snapshot dropped them) are skipped; a
// node with nothing left to say is dropped unless it is a snapshot —
// an empty snapshot still registers the node upstream.
func (u *Uplink) build() {
	u.vbuf = u.vbuf[:0]
	kept := u.ents[:0]
	for _, ent := range u.ents {
		rec, ok := u.s.lookup(ent.name)
		if !ok {
			continue
		}
		ent.vstart = len(u.vbuf)
		rec.mu.RLock()
		if ent.snap {
			u.vbuf = u.s.appendValuesLocked(u.vbuf, rec)
		} else {
			for _, vn := range u.nbuf[ent.nstart:ent.nend] {
				if v, ok := u.s.valueLocked(rec, vn); ok {
					u.vbuf = append(u.vbuf, v)
				}
			}
		}
		rec.mu.RUnlock()
		ent.vend = len(u.vbuf)
		if ent.vend == ent.vstart && !ent.snap {
			continue
		}
		// The columns are in id order and the dirty names in a map's. Name
		// order makes the section — and through first-sight dictionary
		// ids, every later frame — a function of the ingested data alone:
		// same input, same bytes.
		slices.SortFunc(u.vbuf[ent.vstart:ent.vend], func(a, b consolidate.Value) int {
			return strings.Compare(a.Name, b.Name)
		})
		kept = append(kept, ent)
	}
	u.ents = kept
	u.frames = u.frames[:0]
	for i := range u.ents {
		ent := &u.ents[i]
		f := transmit.Frame{Node: ent.name, TraceID: ent.traceID, TraceNs: ent.traceNs, Values: u.vbuf[ent.vstart:ent.vend:ent.vend]}
		if ent.snap {
			f.Kind = transmit.FrameSnapshot
		}
		u.frames = append(u.frames, f)
	}
}

// sendBatches ships the assembled sub-frames as v2 batch frames, at most
// maxBatch node sections each. A failed send rebases the chain (the next
// frame decodes standalone) and queues the chunk's nodes for re-marking.
func (u *Uplink) sendBatches(nowNs int64) (int, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	var firstErr error
	sent := 0
	for lo := 0; lo < len(u.frames); lo += maxBatch {
		hi := min(lo+maxBatch, len(u.frames))
		chunk := u.frames[lo:hi]
		u.seq++
		u.buf = u.enc.Encode(u.buf[:0], u.seq, nowNs, chunk)
		// Send is a transport sink (socket or fabric write) that never
		// re-enters the server. It runs under the session lock so that
		// HandleControl cannot rebase the chain between encode and send.
		if err := u.cfg.Send(u.buf); err != nil {
			u.enc.Rebase()
			u.stats.SendFails++
			mUplinkSendFails.Inc()
			if firstErr == nil {
				firstErr = err
			}
			for i := range chunk {
				u.remark = append(u.remark, chunk[i].Node)
			}
			continue
		}
		sent += len(chunk)
		u.stats.Frames++
		u.stats.Nodes += int64(len(chunk))
		u.stats.Bytes += int64(len(u.buf))
		mUplinkFrames.Inc()
		mUplinkNodes.Add(int64(len(chunk)))
		mUplinkBytes.Add(int64(len(u.buf)))
		for i := range chunk {
			if chunk[i].TraceID != 0 {
				u.stats.TracedForwards++
				fjournal.Append(int(u.sym), flight.Entry{Kind: flight.KindUplinkForward, Node: fjournal.Sym(chunk[i].Node), Trace: chunk[i].TraceID, TimeNs: nowNs, A: int64(len(chunk[i].Values))})
			}
		}
	}
	return sent, firstErr
}

// sendV1 ships the assembled sub-frames as classic per-node sequenced
// frames, each offering the v2 upgrade while the session still may take
// it. A failed send leaves the node's sequence unadvanced and queues a
// snapshot re-mark, so the suppressed deltas cannot be lost.
func (u *Uplink) sendV1(nowNs int64) (int, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	var firstErr error
	sent := 0
	for i := range u.frames {
		f := u.frames[i]
		f.Seq = u.nodeSeq[f.Node] + 1
		f.SentNs = nowNs
		if u.offer {
			f.WireOffer = transmit.WireV2
		}
		u.buf = transmit.MarshalFrame(u.buf[:0], f)
		// Send never re-enters the server; it runs under the session lock
		// so that per-node sequences cannot advance concurrently with a
		// control-plane restart.
		if err := u.cfg.Send(u.buf); err != nil {
			u.stats.SendFails++
			mUplinkSendFails.Inc()
			if firstErr == nil {
				firstErr = err
			}
			u.remark = append(u.remark, f.Node)
			continue
		}
		u.nodeSeq[f.Node] = f.Seq
		sent++
		u.stats.V1Frames++
		u.stats.Nodes++
		u.stats.Bytes += int64(len(u.buf))
		mUplinkNodes.Add(1)
		mUplinkBytes.Add(int64(len(u.buf)))
		if f.TraceID != 0 {
			u.stats.TracedForwards++
			fjournal.Append(int(u.sym), flight.Entry{Kind: flight.KindUplinkForward, Node: fjournal.Sym(f.Node), Trace: f.TraceID, TimeNs: nowNs, A: int64(len(f.Values))})
		}
	}
	return sent, firstErr
}

// HandleControl consumes one parent→child control payload: version
// answers, dictionary acks and resets, link resyncs ("!uresync"), and
// per-node resync requests. nowNs timestamps the journal records.
func (u *Uplink) HandleControl(payload []byte, nowNs int64) {
	if node, ok := transmit.ParseResync(payload); ok {
		u.markSnapNode(node)
		u.mu.Lock()
		u.stats.NodeResyncs++
		u.mu.Unlock()
		fjournal.Append(int(u.sym), flight.Entry{Kind: flight.KindResyncRecv, Node: fjournal.Sym(node), TimeNs: nowNs})
		return
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	switch {
	case transmit.IsUplinkResync(payload):
		// The parent lost a batch (or restarted mid-chain): snap-all so
		// every suppressed delta is re-established, and rebase so the
		// carrying frame decodes regardless of the gap.
		u.snapAll = true
		u.stats.ResyncsRecv++
		if u.v2 {
			u.enc.Rebase()
		}
		fjournal.Append(int(u.sym), flight.Entry{Kind: flight.KindUplinkResync, Node: u.sym, TimeNs: nowNs})
	case transmit.IsWireReset(payload):
		if u.v2 {
			// The parent's dictionary is gone (restart): resend everything
			// and re-establish state wholesale.
			u.enc.ResetTable()
			u.snapAll = true
			u.stats.ResyncsRecv++
			fjournal.Append(int(u.sym), flight.Entry{Kind: flight.KindWireReset, Node: u.sym, TimeNs: nowNs})
		}
	default:
		if ver, ok := transmit.ParseWireAnswer(payload); ok {
			if u.offer && !u.v2 && ver == transmit.WireV2 {
				u.v2, u.offer, u.enc = true, false, transmit.NewBatchEncoderV2()
				// Switch formats from a clean baseline: the v1 per-node
				// numbering is abandoned, so the first batch carries full
				// state for everything.
				u.snapAll = true
				u.stats.V2 = true
				fjournal.Append(int(u.sym), flight.Entry{Kind: flight.KindWireUpgrade, Node: u.sym, TimeNs: nowNs, A: int64(ver)})
			}
		} else if n, ok := transmit.ParseDictAck(payload); ok {
			if u.v2 {
				u.enc.Ack(n)
			}
		}
	}
}

// Stats returns a snapshot of the session counters.
func (u *Uplink) Stats() UplinkStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.stats
}

// uplinkInCounters tracks uplink traffic arriving from child tiers —
// this server as the parent side (wire.go's batch ingest branch).
// Atomics: bumped on per-session receive paths with no shared lock.
type uplinkInCounters struct {
	frames   atomic.Int64
	nodes    atomic.Int64
	rawNodes atomic.Int64 // node sections naming raw nodes (no '/' — not subtree aggregates)
	desyncs  atomic.Int64
	resets   atomic.Int64
}

// UplinkInStats is a snapshot of the parent-side uplink ingest counters.
type UplinkInStats struct {
	Frames   int64 // batch frames applied
	Nodes    int64 // node sub-frames applied
	RawNodes int64 // of those, raw (non-aggregate) nodes
	Desyncs  int64 // batch chain breaks ("!uresync" sent)
	Resets   int64 // dictionary resets requested ("!wreset" sent)
}

// UplinkInStats reports uplink traffic this server has ingested from
// child tiers.
func (s *Server) UplinkInStats() UplinkInStats {
	return UplinkInStats{
		Frames:   s.upIn.frames.Load(),
		Nodes:    s.upIn.nodes.Load(),
		RawNodes: s.upIn.rawNodes.Load(),
		Desyncs:  s.upIn.desyncs.Load(),
		Resets:   s.upIn.resets.Load(),
	}
}
