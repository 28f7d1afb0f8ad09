// Package golife is analyzer testdata: goroutine shutdown proofs and
// guarded-send discipline inside spawned goroutines.
package golife

import "time"

// spawnLeak never exits: the classic leaked ticker goroutine.
func spawnLeak() {
	go func() {
		for { // want `golife: goroutine has an unbounded loop with no exit path`
			time.Sleep(time.Second)
		}
	}()
}

// spawnStopped exits through the stop channel: provable shutdown.
func spawnStopped(stop chan struct{}) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				time.Sleep(time.Second)
			}
		}
	}()
}

// spawnCond is bounded by construction: the loop condition is the
// shutdown hook.
func spawnCond(alive func() bool) {
	go func() {
		for alive() {
			time.Sleep(time.Second)
		}
	}()
}

type worker struct {
	ch chan int
}

// spawnNamed is checked against the resolved callee body: run has both
// an unbounded loop and an unguarded send on an unproven channel.
func spawnNamed(w *worker) {
	go w.run()
}

func (w *worker) run() {
	for { // want `golife: goroutine has an unbounded loop with no exit path`
		w.ch <- 1 // want `golife: unguarded channel send on w.ch`
	}
}

// spawnRange ranges a channel nobody provably closes.
func spawnRange(ch chan int) {
	go func() {
		for range ch { // want `golife: goroutine has an unbounded loop with no exit path`
		}
	}()
}

// spawnRangeExit has an explicit way out.
func spawnRangeExit(ch chan int) {
	go func() {
		for v := range ch {
			if v < 0 {
				return
			}
		}
	}()
}

// spawnGuardedSend sends under a select with a stop alternative.
func spawnGuardedSend(out chan int, stop chan struct{}) {
	go func() {
		for i := 0; i < 10; i++ {
			select {
			case out <- i:
			case <-stop:
				return
			}
		}
	}()
}

// spawnBuffered sends on a channel provably buffered in this package.
func spawnBuffered() {
	errc := make(chan error, 1)
	go func() {
		errc <- nil
	}()
	<-errc
}

// spawnUnbuffered sends bare on an unbuffered channel: if the receiver
// gives up (timeout, error return), the goroutine wedges forever.
func spawnUnbuffered() {
	done := make(chan struct{})
	go func() {
		done <- struct{}{} // want `golife: unguarded channel send on done`
	}()
	<-done
}

// spawnLabeledBreak exits the outer loop through a labeled break from
// inside a nested select.
func spawnLabeledBreak(stop chan struct{}) {
	go func() {
	outer:
		for {
			select {
			case <-stop:
				break outer
			default:
				time.Sleep(time.Second)
			}
		}
	}()
}
