package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clusterworx/internal/leakcheck"
)

// TestGateHitAndInvalidate: a Gate serves the same value while the
// generation holds and rebuilds exactly once when it moves.
func TestGateHitAndInvalidate(t *testing.T) {
	var gen atomic.Uint64
	var builds atomic.Int64
	g := &Gate[string]{
		GenFn: gen.Load,
		Build: func() string {
			return fmt.Sprintf("build-%d", builds.Add(1))
		},
	}
	if got := g.Get(); got != "build-1" {
		t.Fatalf("first Get = %q", got)
	}
	for i := 0; i < 10; i++ {
		if got := g.Get(); got != "build-1" {
			t.Fatalf("hit returned %q, want build-1", got)
		}
	}
	gen.Add(1)
	if got := g.Get(); got != "build-2" {
		t.Fatalf("post-invalidation Get = %q", got)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("build ran %d times, want 2", n)
	}
}

// TestGateStale: the Stale hook invalidates a generation-valid entry
// (the status snapshot's liveness deadline rides it).
func TestGateStale(t *testing.T) {
	var gen atomic.Uint64
	var builds atomic.Int64
	var stale atomic.Bool
	g := &Gate[string]{
		GenFn: gen.Load,
		Stale: func(string) bool { return stale.Load() },
		Build: func() string { return fmt.Sprintf("b%d", builds.Add(1)) },
	}
	g.Get()
	g.Get()
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1", builds.Load())
	}
	stale.Store(true)
	g.Get()
	if builds.Load() != 2 {
		t.Fatalf("stale entry not rebuilt: builds = %d", builds.Load())
	}
}

// TestGateCoalescing: N identical concurrent misses run one rebuild —
// the acceptance bar is ≥90% collapsed, this asserts all but one.
func TestGateCoalescing(t *testing.T) {
	const readers = 100
	var gen atomic.Uint64
	var builds atomic.Int64
	g := &Gate[string]{
		GenFn: gen.Load,
		Build: func() string {
			builds.Add(1)
			time.Sleep(20 * time.Millisecond) // let every reader pile onto the miss
			return "v"
		},
	}
	gen.Add(1)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if got := g.Get(); got != "v" {
				t.Errorf("Get = %q", got)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent misses ran %d builds, want 1 (≥90%% must coalesce)", readers, n)
	}
}

// TestGateTagsGenerationReadBeforeBuild: an ingest landing during a
// rebuild leaves the entry conservatively tagged, so the next read
// rebuilds rather than serving the torn answer forever.
func TestGateTagsGenerationReadBeforeBuild(t *testing.T) {
	var gen atomic.Uint64
	var builds atomic.Int64
	g := &Gate[string]{GenFn: gen.Load}
	g.Build = func() string {
		n := builds.Add(1)
		if n == 1 {
			gen.Add(1) // "ingest" arrives mid-rebuild
		}
		return fmt.Sprintf("b%d", n)
	}
	if got := g.Get(); got != "b1" {
		t.Fatalf("first Get = %q", got)
	}
	if got := g.Get(); got != "b2" {
		t.Fatalf("Get after mid-build ingest = %q, want a rebuild", got)
	}
}

// TestSignalDeliversAndConflates: wakes before Wait are not lost; many
// wakes conflate to one delivery.
func TestSignalDeliversAndConflates(t *testing.T) {
	var s Signal
	s.Wake()
	s.Wake()
	stop := make(chan struct{})
	if !s.Wait(stop) {
		t.Fatal("Wait missed a pre-posted Wake")
	}
	done := make(chan bool, 1)
	go func() { done <- s.Wait(stop) }()
	time.Sleep(10 * time.Millisecond)
	s.Wake()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Wait returned false on Wake")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait never woke")
	}
	go func() { done <- s.Wait(stop) }()
	close(stop)
	if ok := <-done; ok {
		t.Fatal("Wait ignored stop")
	}
}

// TestDiffRoundtrip: View reconstructions converge byte-for-byte with
// the target rendering across changes, insertions, and deletions.
func TestDiffRoundtrip(t *testing.T) {
	old := []string{
		"node000      up    values=12",
		"node001      up    values=12",
		"node003      DOWN  values=9",
	}
	steps := [][]string{
		{ // change one, delete one, insert two (one interior, one at end)
			"node000      up    values=13",
			"node002      up    values=4",
			"node003      DOWN  values=9",
			"node004      up    values=1",
		},
		{}, // everything gone
		{"nodeXYZ      up    values=1"},
	}
	var v View
	v.SetFull(old)
	cur := old
	for i, next := range steps {
		ops := diffOps(cur, next)
		if err := v.Apply(ops); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got, want := v.Render(), strings.Join(next, "\n"); got != want {
			t.Fatalf("step %d diverged:\ngot:\n%s\nwant:\n%s", i, got, want)
		}
		cur = next
	}
	if ops := Diff([]byte("UPDATE gen=1"), cur, cur); string(ops) != "UPDATE gen=1" {
		t.Fatalf("identical renderings produced ops %q", ops)
	}
}

// diffOps is Diff's payload as the op lines a client's ParseBlock hands
// View.Apply.
func diffOps(old, cur []string) []string {
	payload := Diff(nil, old, cur)
	if len(payload) == 0 {
		return nil
	}
	return strings.Split(string(payload[1:]), "\n")
}

// TestDiffFastPathMatchesMapPath: over random renderings — the same
// roster with some lines changed, which the lockstep walk answers, and
// rosters that gained, lost, repeated or reordered keys, which it must
// hand back — Diff returns the ops the map path returns, byte for byte.
func TestDiffFastPathMatchesMapPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	render := func(keys []int) []string {
		lines := make([]string, len(keys))
		for i, k := range keys {
			lines[i] = fmt.Sprintf("node%03d  values=%d", k, rng.Intn(3))
		}
		return lines
	}
	fast := 0
	for trial := 0; trial < 2000; trial++ {
		var keys []int
		for k := 0; k < 12; k++ {
			if rng.Intn(4) > 0 {
				keys = append(keys, k)
			}
		}
		old := render(keys)
		switch rng.Intn(6) {
		case 0: // a key goes
			if len(keys) > 0 {
				i := rng.Intn(len(keys))
				keys = append(keys[:i:i], keys[i+1:]...)
			}
		case 1: // a key comes
			keys = append(keys, 12+rng.Intn(3))
		case 2: // a key repeats: the walk cannot vouch for the maps
			if len(keys) > 1 {
				keys[rng.Intn(len(keys)-1)+1] = keys[0]
				old = render(keys)
			}
		case 3: // same keys, another order
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		}
		cur := render(keys)
		got, want := Diff([]byte("h"), old, cur), diffByKey([]byte("h"), old, cur)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\nold %q\ncur %q\nDiff      %q\ndiffByKey %q", trial, old, cur, got, want)
		}
		if _, ok := diffSameKeys(nil, old, cur); ok {
			fast++
		}
	}
	if fast < 500 {
		t.Fatalf("the lockstep walk answered %d of 2000 trials: the test no longer reaches it", fast)
	}
}

// TestHubBoundedQueueDropsToResync: a consumer that never drains
// overflows its bounded queue and is told to resync — the wire
// protocol's lost-delta idiom on the client hop.
func TestHubBoundedQueueDropsToResync(t *testing.T) {
	t.Cleanup(leakcheck.Goroutines(t))
	var gen atomic.Uint64
	var sig Signal
	h := NewHub(gen.Load, &sig)
	sub := h.Register()
	defer leakcheck.Returns(t, "the last Unregister", func() { h.Unregister(sub) })

	// Fire enough wakes that even with dispatcher conflation the queue
	// must overflow: each wake is delivered synchronously by waiting for
	// the queue to fill.
	deadline := time.After(5 * time.Second)
	for filled := false; !filled; {
		gen.Add(1)
		sig.Wake()
		select {
		case <-deadline:
			t.Fatal("queue never overflowed")
		default:
		}
		filled = len(sub.ch) == SubQueue && len(sub.resync) == 1
		time.Sleep(time.Millisecond)
	}

	stop := make(chan struct{})
	sawResync := false
	for i := 0; i < SubQueue; i++ {
		_, resync, ok := sub.Next(stop)
		if !ok {
			t.Fatal("Next returned !ok")
		}
		if resync {
			sawResync = true
			break
		}
	}
	if !sawResync {
		t.Fatal("overflowed subscriber was never told to resync")
	}
}

// TestHubDispatcherLifecycle: the dispatcher goroutine exists only
// while subscribers do, and notifications reach a live subscriber.
func TestHubDispatcherLifecycle(t *testing.T) {
	t.Cleanup(leakcheck.Goroutines(t))
	var gen atomic.Uint64
	var sig Signal
	h := NewHub(gen.Load, &sig)
	sub := h.Register()
	gen.Store(42)
	sig.Wake()
	stop := make(chan struct{})
	got := make(chan uint64, 1)
	go func() {
		g, _, ok := sub.Next(stop)
		if ok {
			got <- g
		}
	}()
	select {
	case g := <-got:
		if g != 42 {
			t.Fatalf("notified generation %d, want 42", g)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscriber never notified")
	}
	h.Unregister(sub)
	if n := h.Subscribers(); n != 0 {
		t.Fatalf("%d subscribers after unregister", n)
	}
	// Re-register restarts the dispatcher cleanly.
	sub2 := h.Register()
	sig.Wake()
	go func() {
		_, _, ok := sub2.Next(stop)
		got <- map[bool]uint64{true: 1, false: 0}[ok]
	}()
	select {
	case ok := <-got:
		if ok != 1 {
			t.Fatal("restarted dispatcher did not deliver")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("restarted dispatcher never delivered")
	}
	leakcheck.Returns(t, "the last Unregister", func() { h.Unregister(sub2) })
}

// TestHubRegisterUnregisterChurn hammers the dispatcher start/stop edge:
// goroutines register, drain a few notifications, and unregister while
// wakes fire continuously, so the hub constantly crosses the
// last-out/first-in restart boundary. Run under -race this pins the
// stale-dispatcher guard in run(): without it, a dispatcher whose stop
// channel was closed by the last Unregister could race a freshly started
// replacement and both would deliver to the new era's subscribers.
func TestHubRegisterUnregisterChurn(t *testing.T) {
	t.Cleanup(leakcheck.Goroutines(t))
	var gen atomic.Uint64
	var sig Signal
	h := NewHub(gen.Load, &sig)

	done := make(chan struct{})
	var wakers sync.WaitGroup
	wakers.Add(1)
	go func() {
		defer wakers.Done()
		for {
			select {
			case <-done:
				return
			default:
				gen.Add(1)
				sig.Wake()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stop := make(chan struct{})
			close(stop) // Next never blocks: drained opportunistically
			for i := 0; i < 200; i++ {
				sub := h.Register()
				sub.Next(stop)
				sub.Next(stop)
				h.Unregister(sub)
			}
		}()
	}
	wg.Wait()
	close(done)
	wakers.Wait()

	if n := h.Subscribers(); n != 0 {
		t.Fatalf("%d subscribers left after churn", n)
	}
	// The hub must still work after the churn: a fresh subscriber gets a
	// notification from a cleanly restarted dispatcher.
	sub := h.Register()
	defer leakcheck.Returns(t, "the last Unregister", func() { h.Unregister(sub) })
	sig.Wake()
	got := make(chan bool, 1)
	go func() {
		_, _, ok := sub.Next(nil)
		got <- ok
	}()
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("post-churn subscriber got !ok")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-churn dispatcher never delivered")
	}
}

// TestParseBlock covers the pushed-block header grammar.
func TestParseBlock(t *testing.T) {
	kind, gen, lines, err := ParseBlock("UPDATE gen=17\n=node000 up\n-node001")
	if err != nil || kind != BlockUpdate || gen != 17 || len(lines) != 2 {
		t.Fatalf("ParseBlock = %q %d %v %v", kind, gen, lines, err)
	}
	if _, _, _, err := ParseBlock("UPDATE gen=zzz"); err == nil {
		t.Fatal("bad generation accepted")
	}
	kind, _, _, err = ParseBlock("OK watch status gen=3\nnode000 up")
	if err != nil || kind != "OK" {
		t.Fatalf("initial block: %q %v", kind, err)
	}
}
