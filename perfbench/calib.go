package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"zerotune/internal/metrics"
)

// The machine this benchmark runs on is shared, and its speed drifts: runs
// of identical code read up to twice as slow as one another on fixed work,
// in CPU time as well as in wall time. The cost metrics are therefore given
// in units of a reference kernel timed in the same run: fixed work built
// only from the Go standard library, so that no change to the program moves
// it, and timed by its own thread's CPU time, so that other threads of the
// run do not move it either.

// refDoc is the kernel's JSON input: 64 operator-like objects, about 9 KiB.
var refDoc = func() []byte {
	type node struct {
		ID       int       `json:"id"`
		Kind     string    `json:"kind"`
		Rate     float64   `json:"rate"`
		Width    int       `json:"width"`
		Children []int     `json:"children"`
		Weights  []float64 `json:"weights"`
	}
	nodes := make([]node, 64)
	for i := range nodes {
		nodes[i] = node{ID: i, Kind: fmt.Sprintf("op-%d", i%7), Rate: float64(i*i) * 1.5, Width: 8 + i%5,
			Children: []int{i + 1, i + 2}, Weights: []float64{float64(i) / 3, float64(i) / 7, float64(i) / 11}}
	}
	b, err := json.Marshal(nodes)
	if err != nil {
		panic(err)
	}
	return b
}()

// refKernel decodes refDoc, runs a small dense network over it and sorts
// the result: parsing, allocation, float arithmetic and branching, as the
// serving and training paths mix them.
func refKernel() float64 {
	var nodes []map[string]any
	if err := json.Unmarshal(refDoc, &nodes); err != nil {
		panic(err)
	}
	const n = 64
	w := make([]float64, n*n)
	for i := range w {
		w[i] = float64((i*7919)%61)/61 - 0.5
	}
	x := make([]float64, n)
	for i, nd := range nodes {
		x[i%n] += nd["rate"].(float64) / 1e3
	}
	y := make([]float64, n)
	for r := 0; r < 96; r++ {
		for i := 0; i < n; i++ {
			s := 0.0
			for j, wj := range w[i*n : (i+1)*n] {
				s += wj * x[j]
			}
			y[i] = s / (1 + max(s, -s))
		}
		x, y = y, x
	}
	sort.Float64s(x)
	return x[0]
}

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, _ = syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// kernelRuns runs the kernel n times on the calling goroutine, which must
// be locked to its thread, and returns the median run's thread CPU time in
// ms and the CPU time of all n runs.
func kernelRuns(n int) (float64, time.Duration) {
	xs := make([]float64, n)
	var total time.Duration
	for i := range xs {
		t0 := threadCPU()
		refKernel()
		d := threadCPU() - t0
		xs[i], total = ms(d), total+d
	}
	slices.Sort(xs)
	return xs[n/2], total
}

// kernelMs times the kernel n times on a locked thread; the median in ms.
func kernelMs(n int) float64 {
	res := make(chan float64)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		m, _ := kernelRuns(n)
		res <- m
	}()
	return <-res
}

// kernelPerMark is how many kernel runs each mark takes: about 4 ms of CPU
// when the host is quiet.
const kernelPerMark = 9

// markEvery is how often the kernel is timed during a phase.
const markEvery = 500 * time.Millisecond

// mark is taken at the start and end of a timed phase and every markEvery
// within it.
type mark struct {
	cpu     time.Duration // process CPU time before the kernel ran
	kernel  float64       // median kernel run, ms
	kernCPU time.Duration // CPU time of the mark's kernel runs
}

// marker takes a mark at the start of a phase and every markEvery until
// stopped, from its own locked thread.
type marker struct {
	stopc chan struct{}
	done  chan []mark
}

func startMarker() *marker {
	mk := &marker{stopc: make(chan struct{}), done: make(chan []mark)}
	take := func() mark {
		c := cpuTime()
		k, kc := kernelRuns(kernelPerMark)
		return mark{cpu: c, kernel: k, kernCPU: kc}
	}
	first := make(chan struct{})
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		marks := []mark{take()}
		close(first)
		t := time.NewTicker(markEvery)
		defer t.Stop()
		for {
			select {
			case <-mk.stopc:
				mk.done <- append(marks, take())
				return
			case <-t.C:
				marks = append(marks, take())
			}
		}
	}()
	<-first
	return mk
}

// stop takes a last mark and returns them all.
func (mk *marker) stop() []mark {
	close(mk.stopc)
	return <-mk.done
}

// phaseCost is the phase's process CPU time per completed request, less
// the kernel's own CPU, divided by the median of the marks' kernel times.
func phaseCost(marks []mark, completed int) (cost, cpuMs float64) {
	last := len(marks) - 1
	cpu := marks[last].cpu - marks[0].cpu
	kernels := make([]float64, len(marks))
	for i, mk := range marks {
		if i < last {
			cpu -= mk.kernCPU // the last mark's kernel ran after its reading
		}
		kernels[i] = mk.kernel
	}
	cpuMs = ms(cpu) / float64(max(completed, 1))
	return cpuMs / metrics.Median(kernels), cpuMs
}
