package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"runtime"
	"syscall"
	"time"

	"zerotune/internal/client"
)

// gencost measures the generator's own CPU per request: the same open-loop
// sender and client as a run, against a loopback handler that answers at
// once. Subtracting it from cpu_ms_per_req leaves the serving tier's share.
func gencost(args []string) error {
	fs := flag.NewFlagSet("gencost", flag.ContinueOnError)
	seconds := fs.Float64("seconds", 5, "seconds per rate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	l, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{}`))
	}))
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = l.srv.Shutdown(ctx)
	}()
	cl, err := client.New(l.url)
	if err != nil {
		return err
	}
	fmt.Printf("50µs sleep, median overshoot of 200: time.Sleep %.3f ms, nanosleep on a locked thread %.3f ms\n",
		sleepOvershoot(time.Sleep), lockedOvershoot())
	ctx := context.Background()
	for _, sp := range specs {
		at, err := schedule(1, sp.busy, time.Duration(*seconds*float64(time.Second)))
		if err != nil {
			return err
		}
		src, err := sp.source(1)
		if err != nil {
			return err
		}
		reqs, err := src.take(len(at))
		if err != nil {
			return err
		}
		cpu0 := cpuTime()
		outs := runPhase(ctx, cl, sp.path, reqs, at, nil)
		cpu := cpuTime() - cpu0
		st := summarise(sp.busy, outs)
		fmt.Printf("%-15s at %5.0f/s: generator CPU %.4f ms/request; %v\n", sp.name, sp.busy, ms(cpu)/float64(len(outs)), st)
	}
	return nil
}

// sleepOvershoot is the median time by which 200 sleeps of 50µs overran.
func sleepOvershoot(sleep func(time.Duration)) float64 {
	const d = 50 * time.Microsecond
	over := make([]float64, 200)
	for i := range over {
		start := time.Now()
		sleep(d)
		over[i] = ms(time.Since(start) - d)
	}
	return quantile(over, 0.5)
}

// lockedOvershoot measures sleepUntil as the dispatcher runs it.
func lockedOvershoot() float64 {
	res := make(chan float64)
	go func() {
		runtime.LockOSThread() // never unlocked: the thread is discarded with its timer slack
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		res <- sleepOvershoot(func(d time.Duration) { sleepUntil(time.Now().Add(d)) })
	}()
	return <-res
}
