package main

import (
	"context"
	"fmt"
	"math"
	"net/http/httptrace"
	"runtime"
	"sync"
	"syscall"
	"time"

	"zerotune/internal/client"
	"zerotune/internal/loadgen"
	"zerotune/internal/metrics"
)

// outcome is one request's fate. Times are offsets from the phase start.
type outcome struct {
	key      int
	intended time.Duration
	released time.Duration // when the dispatcher handed it to a sender
	done     time.Duration
	status   int
	err      error
	resp     []byte
	front    time.Duration // client.Call minus gateway ServeHTTP; traced runs only
	hasFront bool
}

func (o *outcome) latency() time.Duration { return o.done - o.intended }
func (o *outcome) lag() time.Duration     { return o.released - o.intended }

// schedule draws Poisson intended send times from loadgen's seeded
// open-loop schedule.
func schedule(seed uint64, rate float64, d time.Duration) ([]time.Duration, error) {
	reqs, err := loadgen.Spec{Seed: seed, Rate: rate, Duration: d, Bodies: [][]byte{{}}}.Schedule()
	if err != nil {
		return nil, err
	}
	out := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		out[i] = r.Offset
	}
	return out, nil
}

// sleepUntil sleeps the locked OS thread with nanosleep until t. Go's
// runtime timers round short sleeps up to the next millisecond, which would
// make the generator, not the system, set small latencies.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// senders is the benchmark's concurrency: no more senders, and so no more
// connections, than the machine has cores.
func senders() int { return runtime.NumCPU() }

// runPhase sends reqs open-loop at the intended offsets through cl and
// waits for every request. A dispatcher on a locked thread releases each
// request at its time to a fixed pool of senders; a request that finds
// every sender busy waits, and that wait counts in its latency, which is
// timed from the intended send.
func runPhase(ctx context.Context, cl *client.Client, path string, reqs []request, at []time.Duration, probe *probes) []outcome {
	out := make([]outcome, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				cctx := ctx
				var local string
				if probe != nil && probe.on.Load() {
					cctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
						GotConn: func(ci httptrace.GotConnInfo) { local = ci.Conn.LocalAddr().String() },
					})
				}
				sent := time.Now()
				o.status, o.resp, o.err = cl.Call(cctx, path, reqs[i].body)
				now := time.Now()
				o.done = now.Sub(start)
				if local != "" {
					if gwDur, ok := probe.front.take(local); ok {
						o.front, o.hasFront = now.Sub(sent)-gwDur, true
					}
				}
			}
		}()
	}
	// The dispatcher owns a locked thread for the phase and exits without
	// unlocking it, so the runtime discards the thread and its timer slack.
	released := make(chan struct{})
	go func() {
		runtime.LockOSThread()
		// A 1ns timer slack (the default is 50µs) makes nanosleep wake the
		// dispatcher on time; the setting belongs to this thread alone.
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort
		for i := range reqs {
			sleepUntil(start.Add(at[i]))
			out[i].key = reqs[i].key
			out[i].intended = at[i]
			out[i].released = time.Since(start)
			queue <- i
		}
		close(queue)
		close(released)
	}()
	<-released
	wg.Wait()
	return out
}

// phaseStats summarises one phase.
type phaseStats struct {
	rate      float64 // offered, requests/s
	sent      int
	failed    int
	p50, p90  float64 // ms
	p99       float64
	lag50     float64
	lag99     float64
	completed int
}

func summarise(rate float64, outs []outcome) phaseStats {
	s := phaseStats{rate: rate, sent: len(outs)}
	var lat, lag []float64
	for i := range outs {
		o := &outs[i]
		lag = append(lag, ms(o.lag()))
		if o.err != nil || o.status != 200 {
			s.failed++
			continue
		}
		s.completed++
		lat = append(lat, ms(o.latency()))
	}
	if len(lat) == 0 {
		return s
	}
	s.p50, s.p90, s.p99 = quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)
	s.lag50, s.lag99 = quantile(lag, 0.5), quantile(lag, 0.99)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is metrics.TryQuantile, NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if v, ok := metrics.TryQuantile(xs, q); ok {
		return v
	}
	return math.NaN()
}

func (s phaseStats) String() string {
	return fmt.Sprintf("rate %.0f/s sent %d failed %d p50 %.3fms p90 %.3fms p99 %.3fms lag p50 %.3fms p99 %.3fms",
		s.rate, s.sent, s.failed, s.p50, s.p90, s.p99, s.lag50, s.lag99)
}
