// Package leakcheck fails a test whose goroutines outlive what stopped
// them — a daemon's Stop, the end of a watch, a hub's last Unregister —
// within seconds and by the test's name, where a goroutine that never
// ends would otherwise show only as the test binary's timeout. It counts
// goroutines, so it is exact only in packages whose tests do not call
// t.Parallel.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Settle is how long a stopped subsystem gets to return and for its
// goroutines to end.
const Settle = 2 * time.Second

// Goroutines records how many goroutines run now and returns settled,
// which polls for up to Settle for the count to fall back to that and
// otherwise fails t with every goroutine's stack. Register it with
// t.Cleanup first thing in a test, so that it runs after every stop the
// test's own cleanups make.
func Goroutines(t testing.TB) (settled func()) {
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(Settle); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(10 * time.Millisecond)
		}
		if n > base {
			t.Fatalf("%d goroutines %v after the test stopped what it started, %d before it:\n%s", n, Settle, base, stacks())
		}
	}
}

// Returns runs stop on a goroutine of its own and fails t with every
// goroutine's stack unless stop returns within Settle: a stop that waits
// on a goroutine that never ends fails here.
func Returns(t testing.TB, what string, stop func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		stop()
	}()
	select {
	case <-done:
	case <-time.After(Settle):
		t.Fatalf("%s did not return in %v:\n%s", what, Settle, stacks())
	}
}

// stacks is every goroutine's stack.
func stacks() []byte {
	buf := make([]byte, 1<<20)
	return buf[:runtime.Stack(buf, true)]
}
