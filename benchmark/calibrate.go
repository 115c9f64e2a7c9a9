package main

import (
	"sort"
	"strconv"
	"time"
)

// The reference box is a two-CPU virtual machine on a shared host, and its
// speed switches between states that last from ten seconds to minutes. In
// the slow state code that allocates and misses the cache (the monitor, the
// serve window checks) takes 30 to 40 % longer, code that computes on a small
// working set (the scheduler under check, serve's ingest pipeline) 10 to
// 20 % longer. A run of 16 s sees one or two states, so no statistic of its
// passes — median, quartile or minimum — repeats between runs.
//
// Every run therefore times a reference kernel — a fixed piece of work in
// this file, which no change to the program can touch — before and after
// every pass and every 250 ms inside long ones, and reports each pass in
// calibrated time: wall-clock time × nominal kernel time ÷ observed kernel
// time. Calibrated seconds are seconds on this box in the state where the
// kernel takes its nominal time. The kernel is half of each kind of code, so
// that it slows by about 25 % and no workload is left more than 15 % from it.

// nominalKernelMS is what one run of the kernel takes on the reference box
// in its usual state.
const nominalKernelMS = 2.6

// runKernel is the reference kernel.
func runKernel() {
	runMemory()
	runCompute()
}

// kernelSink keeps the kernels' results alive.
var kernelSink int

type kernelNode struct {
	next *kernelNode
	v    []int
}

// runMemory allocates a linked list and a string-keyed map, walks and sorts
// them: allocation, hashing and pointer chasing through fresh memory, as the
// monitor and the window checks do.
func runMemory() {
	const n = 5000
	var head *kernelNode
	m := make(map[string]int)
	for i := 0; i < n; i++ {
		head = &kernelNode{next: head, v: make([]int, 8)}
		m[strconv.Itoa(i%(n/4))] += i
	}
	xs := make([]int, 0, n)
	for p := head; p != nil; p = p.next {
		xs = append(xs, len(p.v)*int(uint32(len(xs))*2654435761%1000))
	}
	sort.Ints(xs)
	kernelSink += xs[0] + len(m)
}

// computeWords is a power of two, so the index below is a mask, not a
// division; 256 KiB stay in the second-level cache.
const computeWords = 32768

var (
	computeBuf = make([]uint64, computeWords)
	computeTmp = make([]int, 4096)
)

// runCompute fills a buffer from a xorshift generator, chases indices
// through it and sorts a part of it, allocating nothing.
func runCompute() {
	x := uint64(88172645463325252)
	for i := range computeBuf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		computeBuf[i] = x
	}
	var s, j uint64
	for i := 0; i < 200000; i++ {
		j = computeBuf[j%computeWords] + uint64(i)
		s += j
	}
	for i := range computeTmp {
		computeTmp[i] = int(computeBuf[i] % 100000)
	}
	sort.Ints(computeTmp)
	kernelSink += int(s) + computeTmp[0]
}

// tickEvery is how often a pass longer than this samples the kernel.
const tickEvery = 250 * time.Millisecond

// calibrator times the reference kernel over a run. A nil calibrator
// samples nothing and calibrates by 1, which is the traced run. It is used
// from the harness goroutine only.
type calibrator struct {
	run   func()        // the kernel
	ms    []float64     // every sample
	last  time.Time     // when the latest sample ended
	spent time.Duration // time spent sampling, which passes leave out
}

func newCalibrator() *calibrator { return &calibrator{run: runKernel} }

// sample times the kernel five times and keeps the median: single runs
// scatter by a third, hit by a garbage collection or a scheduling hiccup.
func (c *calibrator) sample() {
	if c == nil {
		return
	}
	t0 := time.Now()
	var xs [5]float64
	for i := range xs {
		t := time.Now()
		c.run()
		xs[i] = time.Since(t).Seconds() * 1000
	}
	c.ms = append(c.ms, median(xs[:]))
	c.last = time.Now()
	c.spent += c.last.Sub(t0)
}

// tick samples if the latest sample is older than tickEvery. Passes call it
// between their items.
func (c *calibrator) tick() {
	if c != nil && time.Since(c.last) >= tickEvery {
		c.sample()
	}
}

// mark names the latest sample; factorSince(mark) covers it and every later
// one.
func (c *calibrator) mark() int {
	if c == nil {
		return 0
	}
	return len(c.ms) - 1
}

// factorSince is nominal ÷ observed kernel time, the median of the samples
// since the mark: what a wall-clock time measured in that interval is
// multiplied by.
func (c *calibrator) factorSince(mark int) float64 {
	if c == nil || mark < 0 || mark >= len(c.ms) {
		return 1
	}
	return nominalKernelMS / median(c.ms[mark:])
}

// stopwatch times a pass without the kernel samples taken inside it.
type stopwatch struct {
	c     *calibrator
	start time.Time
	spent time.Duration
}

func (c *calibrator) stopwatch() stopwatch {
	s := stopwatch{c: c, start: time.Now()}
	if c != nil {
		s.spent = c.spent
	}
	return s
}

func (s stopwatch) elapsed() time.Duration {
	d := time.Since(s.start)
	if s.c != nil {
		d -= s.c.spent - s.spent
	}
	return d
}
