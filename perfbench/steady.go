package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steady runs each named workload N times in fresh processes, one after
// another, with seeds 1..N, and prints every metric's median, quartiles and
// spread (quartile distance over median) — the figures BENCHMARK.json's
// bounds are set from.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	seconds := fs.String("seconds", "15", "seconds per run")
	trace := fs.String("trace", "0", "trace flag passed to each run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		for _, s := range specs {
			names = append(names, s.name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range names {
		values := map[string][]float64{}
		var order []string
		var failed, attempted []int
		for i := 1; i <= *runs; i++ {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(i), "--seconds", *seconds, "--trace", *trace)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, i, err)
			}
			var res result
			if err := json.Unmarshal(lastLine(out), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, i, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: correctness checks failed:\n%s", name, i, out)
			}
			failed, attempted = append(failed, res.Failed), append(attempted, res.Attempted)
			for k, v := range res.Metrics {
				if _, ok := values[k]; !ok {
					order = append(order, k)
				}
				values[k] = append(values[k], v.Value)
			}
		}
		fmt.Printf("%s: %d runs, failed %v of attempted %v\n", name, *runs, failed, attempted)
		fmt.Printf("  %-36s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
		for _, k := range metricNames(*trace == "1") {
			xs, ok := values[k]
			if !ok {
				continue
			}
			q1, med, q3 := quartiles(xs)
			fmt.Printf("  %-36s %12.4f %12.4f %12.4f %7.1f%%  %s\n", k, q1, med, q3, 100*(q3-q1)/med, fmtList(xs))
		}
	}
	return nil
}

// quartiles are the three cut points of the "exclusive" method, as Python's
// statistics.quantiles(values, n=4) computes them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(j int) float64 {
		m := float64(len(s) + 1)
		pos := float64(j) * m / 4
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return cut(1), cut(2), cut(3)
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
