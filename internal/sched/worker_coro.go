//go:build go1.23

package sched

import "iter"

// switcher runs a worker's loop on a coroutine (iter.Pull). Resuming a worker
// and parking it are each one coroutine switch on the same OS thread, with no
// trip through the Go scheduler: a context switch between two threads costs
// two of them, the holder parking into the driver and the driver resuming the
// next holder. The coroutine is a goroutine of its own from newWorker until
// its loop returns, and keeps its grown stack for the whole time.
type switcher struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	end   func()
}

func newWorker() *worker {
	w := new(worker)
	w.next, w.end = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		w.loop()
	})
	return w
}

// resume runs the worker until it parks (true) or its loop returns (false).
// The caller blocks meanwhile; any goroutine may resume a worker, one at a
// time.
func (w *worker) resume() bool {
	_, parked := w.next()
	return parked
}

// park, on the worker's own coroutine, hands control back to the goroutine
// that resumed it and waits for the next resume (true) or stop (false).
func (w *worker) park() bool { return w.yield(struct{}{}) }

// stop ends a parked worker and returns once its loop has. A worker that was
// never resumed ends without entering its loop.
func (w *worker) stop() { w.end() }
