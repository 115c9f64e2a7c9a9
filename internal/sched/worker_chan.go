//go:build !go1.23

package sched

// switcher runs a worker's loop on a goroutine behind two unbuffered
// channels, for toolchains without iter.Pull (worker_coro.go). It has the
// coroutine's three methods and their contract; each switch is a trip through
// the Go scheduler instead of a coroutine switch.
type switcher struct {
	in  chan bool // resume (true) or stop (false)
	out chan bool // parked (true) or loop returned (false)
}

func newWorker() *worker {
	w := &worker{switcher: switcher{in: make(chan bool), out: make(chan bool)}}
	go func() {
		if <-w.in {
			w.loop()
		}
		w.out <- false
	}()
	return w
}

// resume runs the worker until it parks (true) or its loop returns (false).
func (w *worker) resume() bool {
	w.in <- true
	return <-w.out
}

// park, on the worker's goroutine, hands control back to the goroutine that
// resumed it and waits for the next resume (true) or stop (false).
func (w *worker) park() bool {
	w.out <- true
	return <-w.in
}

// stop ends a parked worker and returns once its loop has.
func (w *worker) stop() {
	w.in <- false
	<-w.out
}
