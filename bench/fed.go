package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// rootAggregate is the node cwxd's -rollup flag composes the rack
// aggregates into.
const rootAggregate = "grid/root"

// fedWorkload is a two-tier tree: the generator hosts the leaf tier, cwxd
// is the root. A round changes touchMetrics values on fedTouched nodes of a
// sliding window, so three quarters of the tree is idle and must cost no
// uplink bytes; then the rollup ticks, the uplink flushes, and the round
// ends when the root pushes the sentinel's new value. Dirty-stripe
// marking, the batch codec, the rollups, the root's batch ingest into a
// 1 k-node table and the serve hub's push do the work; the agent half and
// the per-node codec do nothing. Round latency is how stale the root is.
type fedWorkload struct {
	t    *tree
	idle int64           // node sections sent beyond the touched nodes and the aggregate
	up0  *UplinkCounters // the uplink's counters when tracing began
}

func (w *fedWorkload) daemonFlags() []string {
	return []string{"-rollup", rootAggregate + ",rack/"}
}
func (w *fedWorkload) warmupRounds() int { return 32 }
func (w *fedWorkload) opsPerRound() int  { return min(fedTouched, w.t.nodes) }

func (w *fedWorkload) setup(e *env) (err error) {
	w.t, err = newTree(e, true, fedSamples, 0)
	return err
}

func (w *fedWorkload) round(e *env, r int) error {
	t, tr := w.t, e.tr
	root := tr.Begin("round", -1, r)
	defer tr.End(root)
	if tr != nil && w.up0 == nil {
		up := t.leaf.Uplink()
		w.up0 = &up
	}
	sp := tr.Begin("fed.leaf_ingest", root, r)
	err := w.touch(r)
	tr.End(sp)
	if err != nil {
		return err
	}
	sp = tr.Begin("fed.flush", root, r)
	err = w.flush(tr, sp, r)
	tr.End(sp)
	if err != nil {
		return err
	}
	sp = tr.Begin("fed.root_wait", root, r)
	err = t.barrier()
	tr.End(sp)
	return err
}

// touch changes touchMetrics values on the round's window of nodes at the
// leaf, the sentinel last.
func (w *fedWorkload) touch(r int) error {
	t := w.t
	window := w.opsPerRound() - 1
	for j := 0; j < window; j++ {
		i := t.others[(r*window+j)%len(t.others)]
		if err := t.leaf.Ingest(deltaFrame(nodeName(i), t.gen.Touch())); err != nil {
			return err
		}
	}
	return t.touchSentinel()
}

// flush ticks the rollup and flushes the uplink, as core.UplinkClient does
// once a period, and counts node sections that had no reason to go up.
func (w *fedWorkload) flush(tr *Tracer, parent int32, r int) error {
	t := w.t
	t.leaf.Step()
	sp := tr.Begin("rollup.tick", parent, r)
	t.leaf.RollupTick()
	tr.End(sp)
	sp = tr.Begin("uplink.flush", parent, r)
	sent, err := t.leaf.Flush()
	tr.End(sp)
	if err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	// The rack aggregate rides along whenever the fold moved.
	touched := w.opsPerRound()
	if sent < touched {
		return fmt.Errorf("flush sent %d node sections, touched %d", sent, touched)
	}
	w.idle += int64(max(0, sent-touched-1))
	return nil
}

func (w *fedWorkload) drain(*env) error { return nil }

// check: the root holds what the leaf holds for 16 sampled nodes, the grid
// aggregate counts every node, no idle node crossed the uplink and the
// link never resynced.
func (w *fedWorkload) check(e *env) error {
	errs := []error{w.t.checkSample(e, 16)}
	if w.idle != 0 {
		errs = append(errs, fmt.Errorf("%d idle node sections crossed the uplink", w.idle))
	}
	if up := w.t.leaf.Uplink(); up.Resyncs != 0 || up.SnapAlls != 2 {
		errs = append(errs, fmt.Errorf("uplink resynced: %+v", up))
	}
	// cwxd composes the grid aggregate on its own one-second cadence.
	want := fmt.Sprintf("%d", w.t.nodes)
	deadline := time.Now().Add(barrierLimit)
	for {
		got, err := CtlDo(e.d.CtlAddr, "value "+rootAggregate+" load.1.cnt")
		if err == nil && strings.TrimPrefix(got, "OK ") == want {
			break
		}
		if time.Now().After(deadline) {
			errs = append(errs, fmt.Errorf("%s load.1.cnt = %q (%v), want %s", rootAggregate, got, err, want))
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return errors.Join(errs...)
}

func (w *fedWorkload) close() {
	if w.t != nil {
		w.t.close()
	}
}
