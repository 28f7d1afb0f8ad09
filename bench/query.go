package bench

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// queryRotation is how many nodes the hot script's node arguments rotate
// over.
const queryRotation = 64

// churnRebuilds is how many renderings one query_churn round invalidates.
const churnRebuilds = 5

// script is one fixed sequence of scriptRequests requests, written to the
// ctl port in one write.
type script struct {
	reqs  [scriptRequests]string
	bytes []byte
}

func newScript(a, b string) *script {
	s := &script{reqs: [scriptRequests]string{
		"status",
		"values " + a,
		"compare load.1",
		"values " + b,
		"chart " + a + " load.1",
		"value " + a + " load.1",
		"history " + a + " load.1 50",
		"efficiency",
	}}
	for _, r := range s.reqs {
		s.bytes = append(s.bytes, r...)
		s.bytes = append(s.bytes, '\n')
	}
	return s
}

// queryWorkload reads from a loaded tree through one raw ctl connection.
//
// query_hot: nothing changes, so every cacheable verb is a generation-gate
// hit and the cost is plane lookup plus response framing. Ingest and
// history do nothing.
//
// query_churn: before every script the leaf touches the sentinel and
// flushes, and the generator waits for the root's push. The script then
// reads the sentinel (a) and a node in another ingest stripe (b): status,
// compare, efficiency, values a and chart a rebuild exactly once per
// round, values b must stay a hit, value and history are uncached reads.
// Reads and writes alternate on one thread; nothing races.
type queryWorkload struct {
	churn   bool
	t       *tree
	ctl     *ctlConn
	scripts []*script
	first   map[string][]byte // query_hot: the first answer to each request
}

func (w *queryWorkload) daemonFlags() []string { return nil }
func (w *queryWorkload) opsPerRound() int      { return scriptRequests }
func (w *queryWorkload) warmupRounds() int {
	if w.churn {
		return 24
	}
	return 8 * queryRotation // every script's gates are built, with room to spare
}

func (w *queryWorkload) setup(e *env) (err error) {
	if w.t, err = newTree(e, false, queryFullSamples, queryNamedSamples); err != nil {
		return err
	}
	if w.ctl, err = dialCtl(e.d, true); err != nil {
		return err
	}
	w.buildScripts()
	return nil
}

// buildScripts prepares the churn variant's one script, or the hot
// variant's rotation.
func (w *queryWorkload) buildScripts() {
	t := w.t
	if w.churn {
		w.scripts = []*script{newScript(nodeName(t.sentinel), nodeName(t.other))}
		return
	}
	w.first = make(map[string][]byte)
	for i := 0; i < queryRotation; i++ {
		a := t.order[(i*7)%len(t.order)]
		b := t.order[(i*7+3)%len(t.order)]
		w.scripts = append(w.scripts, newScript(nodeName(a), nodeName(b)))
	}
}

func (w *queryWorkload) round(e *env, r int) error {
	tr := e.tr
	root := tr.Begin("round", -1, r)
	defer tr.End(root)
	if w.churn {
		sp := tr.Begin("churn.fresh", root, r)
		if err := w.t.touchSentinel(); err != nil {
			return err
		}
		if err := w.t.flush(); err != nil {
			return err
		}
		if err := w.t.barrier(); err != nil {
			return err
		}
		tr.End(sp)
	}
	sp := tr.Begin("ctl.script", root, r)
	defer tr.End(sp)
	return w.runScript(w.scripts[r%len(w.scripts)])
}

// runScript writes the script in one write, reads its responses and checks
// them: none is an error; on query_hot each is byte-identical to the first
// answer to the same request; on query_churn the sentinel's load.1 reads
// what the round wrote.
func (w *queryWorkload) runScript(s *script) error {
	if err := w.ctl.send(s.bytes); err != nil {
		return fmt.Errorf("write script: %w", err)
	}
	for i, req := range s.reqs {
		b, err := w.ctl.next()
		if err != nil {
			return fmt.Errorf("%q: %w", req, err)
		}
		if bytes.HasPrefix(b, []byte("ERR")) {
			return fmt.Errorf("%q: %s", req, b)
		}
		if w.churn {
			if i == 5 {
				want := "OK " + strconv.FormatFloat(w.t.fresh[0].Num, 'g', -1, 64)
				if string(b) != want {
					return fmt.Errorf("%q = %q after writing %q", req, b, want)
				}
			}
			continue
		}
		if prev, ok := w.first[req]; !ok {
			w.first[req] = append([]byte(nil), b...)
		} else if !bytes.Equal(prev, b) {
			return fmt.Errorf("%q changed while nothing was written:\nfirst %q\n  now %q", req, prev, b)
		}
	}
	return nil
}

func (w *queryWorkload) drain(*env) error { return nil }

func (w *queryWorkload) check(e *env) error {
	errs := []error{w.t.checkSample(e, 16)}
	// Two snap-alls: the v1 one and the batch wire's.
	if up := w.t.leaf.Uplink(); up.Resyncs != 0 || up.SnapAlls != 2 {
		errs = append(errs, fmt.Errorf("uplink resynced: %+v", up))
	}
	// What the serving plane rebuilt is fixed by the script: nothing while
	// nothing changes; with churn, per round, status, compare, efficiency
	// and the sentinel's chart for the script and the sentinel's values for
	// the watch stream. One more would mean values b shared the sentinel's
	// invalidation.
	want := 0.0
	if w.churn {
		want = churnRebuilds * e.serve.rounds
	}
	if e.serve.misses != want {
		errs = append(errs, fmt.Errorf("the serving plane rebuilt %v times in %v rounds, the script determines %v", e.serve.misses, e.serve.rounds, want))
	}
	return errors.Join(errs...)
}

func (w *queryWorkload) close() {
	if w.ctl != nil {
		w.ctl.close()
	}
	if w.t != nil {
		w.t.close()
	}
}
