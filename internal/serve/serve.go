// Package serve is the read-side query layer between the management
// server's data planes (internal/core's registry, internal/history's
// block store) and the client surfaces (ctl verbs, the dashboard, watch
// streams). The paper's GUI (§5.4) assumed a handful of administrators;
// at production scale the read side must take orders of magnitude more
// traffic than ingest without recomputing every panel per request — the
// exact failure mode the BNL "Software Scalability Issues in Large
// Clusters" report documents for flat monitoring masters.
//
// Three mechanisms, all timer-free:
//
//   - Generation gating (Gate): ingest bumps a per-shard atomic
//     generation; cached answers are tagged with the generation they were
//     computed at and stay valid until it moves. A cache hit is a
//     lock-free atomic pointer load returning the prebuilt rendering —
//     zero allocations, enforced by alloc gates and //cwx:hotpath.
//
//   - Request coalescing: N identical concurrent misses collapse onto
//     one rebuild (a mutex plus a post-acquire generation recheck — the
//     stdlib-only singleflight); the waiters return the fresh entry
//     without recomputing.
//
//   - Change-only watch streams (Hub, Signal, Diff/View): subscribers
//     hold a connection and receive only the lines that changed since
//     their last generation — §5.3's change-set consolidation applied to
//     the client hop, the same trick the agent→server hop already uses.
//     Per-subscriber queues are bounded; a slow consumer's overflow is
//     handled with the same drop-to-resync idiom as core.ErrResyncNeeded:
//     continuity is declared lost and the next push is a full snapshot.
package serve

import (
	"sync/atomic"

	"clusterworx/internal/flight"
	"clusterworx/internal/telemetry"
)

// Self-monitoring series for the serving plane. Hits are the hot path —
// a single striped add riding the generation's low bits so steady-state
// readers at different generations land on different cache lines.
var (
	mHits      = telemetry.Default().Counter("cwx_serve_hits_total")
	mMisses    = telemetry.Default().Counter("cwx_serve_misses_total")
	mCoalesced = telemetry.Default().Counter("cwx_serve_coalesced_total")

	mWatchPushes    = telemetry.Default().Counter("cwx_serve_watch_pushes_total")
	mWatchResyncs   = telemetry.Default().Counter("cwx_serve_watch_resyncs_total")
	mWatchOverflows = telemetry.Default().Counter("cwx_serve_watch_overflows_total")
	mWatchSubs      = telemetry.Default().Counter("cwx_serve_watch_subscribers_total")
)

// Stats is a point-in-time reading of the serving plane's counters, for
// tests and the cwxsim summary line.
type Stats struct {
	Hits           int64 // answers served from a generation-valid cache entry
	Misses         int64 // rebuilds (one per coalesced miss group)
	Coalesced      int64 // waiters served by another goroutine's rebuild
	WatchPushes    int64 // blocks pushed to watch subscribers
	WatchResyncs   int64 // full-snapshot pushes after a subscriber overflow
	WatchOverflows int64 // subscriber queue overflows (continuity lost)
}

// ReadStats samples the process-wide cache counters.
func ReadStats() Stats {
	return Stats{
		Hits:           mHits.Load(),
		Misses:         mMisses.Load(),
		Coalesced:      mCoalesced.Load(),
		WatchPushes:    mWatchPushes.Load(),
		WatchResyncs:   mWatchResyncs.Load(),
		WatchOverflows: mWatchOverflows.Load(),
	}
}

// NoteWatchPush and NoteWatchResync record watch-stream deliveries; the
// push loop lives with the ctl protocol in core, the counters live here
// with the rest of the serving plane's self-monitoring.
func NoteWatchPush() { mWatchPushes.Inc() }

// NoteWatchResync records a continuity-loss full push.
func NoteWatchResync() { mWatchResyncs.Inc() }

// fltj is the process-wide flight journal. The serving plane has no
// clock, so its records carry TimeNs 0; the global sequence number
// still orders them against the ingest pipeline's records.
var fltj = flight.Default()

// noteGateRebuild journals a gate miss (a Build run). Cold path: the
// rebuild itself just did registry-scale work, one interning lookup is
// noise.
func noteGateRebuild(name string) {
	if name == "" {
		return
	}
	fltj.Append(0, flight.Entry{Kind: flight.KindGateRebuild, Detail: fltj.Sym(name)})
}

// Signal is a timer-free wakeup for one waiter — the hub's dispatcher:
// writers call Wake after bumping a generation, the waiter blocks until
// at least one Wake has happened since its last look. Spurious wakeups
// are possible (waiters recheck generations); lost wakeups are not — Wake
// sets a pending flag before it posts the waiter's token, and Wait
// consumes the flag before blocking. The token channel is made by the
// first Wait and kept, so a wake costs its waiter no allocation. A second
// waiter (a dispatcher outliving its hub's last subscriber for a moment)
// takes wakes in turn with the first; see Hub.run for how it hands its
// own back.
type Signal struct {
	pending atomic.Bool
	ch      atomic.Pointer[chan struct{}] // cap 1: a token means "look at pending"
}

// Wake marks the signal and releases the waiter. It is called from the
// ingest hot path: before any Wait it is one atomic store and one atomic
// load, after one a non-blocking send that finds the token already
// posted; no allocation either way.
//
//cwx:hotpath
func (s *Signal) Wake() {
	s.pending.Store(true)
	if p := s.ch.Load(); p != nil {
		select {
		case *p <- struct{}{}:
		default: // a token is waiting already; whoever takes it sees pending
		}
	}
}

// Wait blocks until a Wake lands (returning true) or stop closes
// (returning false). A Wake that raced in before Wait blocks is
// delivered immediately via the pending flag.
func (s *Signal) Wait(stop <-chan struct{}) bool {
	if s.pending.Swap(false) {
		return true
	}
	p := s.ch.Load()
	if p == nil {
		n := make(chan struct{}, 1)
		if s.ch.CompareAndSwap(nil, &n) {
			// A Wake between the flag check and the install saw no
			// channel to post to; it set pending first.
			if s.pending.Swap(false) {
				return true
			}
		}
		p = s.ch.Load()
	}
	for {
		select {
		case <-*p:
			// The token of a wake already delivered through the flag
			// carries no news: keep waiting.
			if s.pending.Swap(false) {
				return true
			}
		case <-stop:
			return false
		}
	}
}
