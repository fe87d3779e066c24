package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"zerotune/internal/cluster"
	"zerotune/internal/metrics"
	"zerotune/internal/optisample"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
)

// spec is one serving workload. Rates are fixed numbers: light is a rate at
// which requests seldom overlap; busy sits below the knee, near half of the
// highest sustainable rate for predict-miss, a third for tune and a quarter
// for predict-repeat: nearer the knee, queueing amplified the box's
// run-to-run drift beyond the bounds.
type spec struct {
	name        string
	path        string
	light, busy float64
	source      func(seed uint64) (bodySource, error)
}

var specs = []spec{
	{
		name: "predict-miss",
		path: "/v1/predict", light: 50, busy: 250,
		source: func(seed uint64) (bodySource, error) { return newMissSource(seed), nil },
	},
	{
		name: "predict-repeat",
		path: "/v1/predict", light: 100, busy: 700,
		source: func(seed uint64) (bodySource, error) { return newRepeatSource(seed) },
	},
	{
		name: "tune",
		path: "/v1/tune", light: 40, busy: 80,
		source: func(seed uint64) (bodySource, error) { return newTuneSource(seed), nil },
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// setups is how many times a run sets the tier up; setup_s is their median.
var setups = 3

// result is what one run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// units of the end-to-end metrics; unitOf derives the per-layer ones from
// the name.
var units = map[string]string{
	"setup_s": "s", "p50_ms_light": "ms", "p50_ms_busy": "ms",
	"cpu_ms_per_req": "ms", "peak_rss_mb": "MiB",
	"qerror_p50": "ratio", "qerror_p50_unseen": "ratio", "tune_lat_speedup": "ratio",
	"train_graphs_per_s": "1/s", "cpu_per_req_ref": "ref", "train_graph_cost_ref": "ref",
}

func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	switch {
	case strings.HasSuffix(name, "_us") || strings.Contains(name, "_us_"):
		return "us"
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms_"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "gflops"):
		return "GFLOP/s"
	case strings.Contains(name, "ratio") || strings.Contains(name, "share"):
		return "ratio"
	}
	return "count"
}

// run executes one workload and returns its result. The human-readable
// report goes to log.
func run(ctx context.Context, sp spec, seed uint64, seconds float64, traced bool, log io.Writer) (*result, error) {
	total := time.Duration(seconds * float64(time.Second))
	// The timed phases share the run's seconds: light then busy untraced;
	// light untraced, then light and busy traced.
	lightD, busyD := total*2/5, total*3/5
	if traced {
		lightD, busyD = total/4, total/2
	}

	// Set up several times; the median is setup_s and the last tier serves.
	var setupS, trainCosts []float64
	var tr *tier
	var model *trained
	var light, busy []request
	var lightAt, busyAt []time.Duration
	var src bodySource
	defer func() {
		if tr != nil {
			tr.close()
		}
	}()
	for k := 0; k < setups; k++ {
		if tr != nil {
			tr.close()
			tr = nil
		}
		start := time.Now()
		var err error
		if model, err = trainServed(ctx); err != nil {
			return nil, err
		}
		if src, err = sp.source(seed); err != nil {
			return nil, err
		}
		if lightAt, err = schedule(seed, sp.light, lightD); err != nil {
			return nil, err
		}
		if busyAt, err = schedule(seed+1, sp.busy, busyD); err != nil {
			return nil, err
		}
		if light, err = src.take(len(lightAt)); err != nil {
			return nil, err
		}
		if busy, err = src.take(len(busyAt)); err != nil {
			return nil, err
		}
		wreqs, err := src.warm()
		if err != nil {
			return nil, err
		}
		if tr, err = startTier(model, traced); err != nil {
			return nil, err
		}
		for _, o := range runPhase(ctx, tr.client, sp.path, wreqs, make([]time.Duration, len(wreqs)), nil) {
			if o.err != nil || o.status != 200 {
				return nil, fmt.Errorf("warm-up request: status %d, %v", o.status, o.err)
			}
		}
		setupS = append(setupS, time.Since(start).Seconds())
		trainCosts = append(trainCosts, model.cost())
		fmt.Fprintf(log, "%s seed %d: setup %.3f s, epochs %v s, %v ms CPU, kernel %v ms, cost %.4f ref\n",
			sp.name, seed, setupS[k], fmtList(model.epochS), fmtList(model.epochCPUMs), fmtList(model.kernelMs), trainCosts[k])
	}

	chk, err := newChecker(model)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metricValue{}}
	m := map[string]float64{}
	var lags []float64
	var sample []request // inputs for the direct layer measurements
	var peakRSS float64
	// phase runs one timed phase and checks its answers at once, keeping
	// only what later checks need. Each phase starts from a collected heap,
	// so peak_rss_mb reads the tier and the phase's own inputs, not earlier
	// phases' garbage or set-up's training.
	phase := func(reqs []request, at []time.Duration, probe *probes, rate float64) ([]outcome, phaseStats, []mark) {
		debug.FreeOSMemory()
		rss := startRSS()
		mk := startMarker()
		outs := runPhase(ctx, tr.client, sp.path, reqs, at, probe)
		marks := mk.stop()
		peakRSS = math.Max(peakRSS, rss.stop())
		for i := range outs {
			lags = append(lags, ms(outs[i].lag()))
			res.Attempted++
			if outs[i].err != nil || outs[i].status != 200 {
				res.Failed++
			}
		}
		chk.check(ctx, sp.path, reqs, outs)
		if n := 300 - len(sample); n > 0 {
			sample = append(sample, reqs[:min(n, len(reqs))]...)
		}
		return outs, summarise(rate, outs), marks
	}

	var lightOuts []outcome
	var lightS, busyS phaseStats
	if traced {
		p := tr.probe
		_, base, _ := phase(light, lightAt, nil, sp.light)
		// Fresh inputs for the traced light phase, so a miss stays a miss.
		tlight, err := src.take(len(lightAt))
		if err != nil {
			return nil, err
		}
		c0, err := scrape(ctx, tr)
		if err != nil {
			return nil, err
		}
		f0, h0 := tr.accepts()
		p.on.Store(true)
		var outs []outcome
		outs, lightS, _ = phase(tlight, lightAt, p, sp.light)
		fronts := frontTimes(outs)
		outs, busyS, _ = phase(busy, busyAt, p, sp.busy)
		p.on.Store(false)
		fronts = append(fronts, frontTimes(outs)...)
		c1, err := scrape(ctx, tr)
		if err != nil {
			return nil, err
		}
		f1, h1 := tr.accepts()
		reqs := float64(len(tlight) + len(busy))
		layerMetrics(m, p, c1.sub(c0), reqs, fronts)
		m["gateway.accepts_per_kreq"] = 1000 * float64(f1-f0) / reqs
		m["serve.accepts_per_kreq"] = 1000 * float64(h1-h0) / reqs
		m["trace.p50_ms_light_untraced"] = base.p50
		m["trace.p50_ms_light_traced"] = lightS.p50
		m["trace.overhead_ms_p50"] = lightS.p50 - base.p50
		fmt.Fprintf(log, "  light untraced: %v\n", base)
	} else {
		lightOuts, lightS, _ = phase(light, lightAt, nil, sp.light)
		var marks []mark
		_, busyS, marks = phase(busy, busyAt, nil, sp.busy)
		m["cpu_per_req_ref"], m["cpu_ms_per_req"] = phaseCost(marks, busyS.completed)
		var kernels []float64
		for _, mk := range marks {
			kernels = append(kernels, mk.kernel)
		}
		fmt.Fprintf(log, "  busy phase kernel %v ms\n", fmtList(kernels))
	}
	m["peak_rss_mb"] = peakRSS
	m["p50_ms_light"] = lightS.p50
	m["p50_ms_busy"] = busyS.p50
	m["gen.lag_p50_ms"] = quantile(lags, 0.5)
	m["gen.lag_p99_ms"] = quantile(lags, 0.99)
	fmt.Fprintf(log, "  light: %v\n  busy:  %v\n", lightS, busyS)

	if sp.path == "/v1/tune" {
		// A repeated request gets an identical answer.
		for i := range lightOuts[:min(4, len(lightOuts))] {
			again := runPhase(ctx, tr.client, sp.path, light[i:i+1], []time.Duration{0}, nil)
			res.Attempted++
			if again[0].err != nil || again[0].status != 200 {
				res.Failed++
			}
			chk.identical(lightOuts[i], again[0])
		}
	}
	q, err := chk.measureQuality(ctx, model)
	if err != nil {
		return nil, err
	}
	m["qerror_p50"] = q.qerrSeen
	m["qerror_p50_unseen"] = q.qerrUnseen
	m["tune_lat_speedup"] = q.speedup
	m["setup_s"] = metrics.Median(setupS)
	m["train_graph_cost_ref"] = metrics.Median(trainCosts)
	m["train_graphs_per_s"] = float64(modelItems) / metrics.Median(model.epochS)
	if traced {
		m["gnn.train_epoch_s"] = metrics.Median(model.epochS)
		m["workload.gen_ms_per_kitem"] = 1e6 * model.genS / float64(len(model.items))
		plans, err := workloadPlans(sample, sp.path)
		if err != nil {
			return nil, err
		}
		if err := directLayers(ctx, model, plans, m); err != nil {
			return nil, err
		}
	}

	res.Correct = len(chk.failures) == 0
	fmt.Fprintf(log, "  quality: q-error seen %.4f (constant %.4f), unseen %.4f (constant %.4f), tune speed-up %.4f\n",
		q.qerrSeen, q.constSeen, q.qerrUnseen, q.constUnseen, q.speedup)
	fmt.Fprintf(log, "  samples: light %d, busy %d; attempted %d, failed %d\n", lightS.sent, busyS.sent, res.Attempted, res.Failed)
	fmt.Fprintf(log, "  busy p90 %.3f ms, p99 %.3f ms over %d samples (not gated)\n", busyS.p90, busyS.p99, busyS.sent)
	for _, f := range chk.failures {
		fmt.Fprintf(log, "  CHECK FAILED: %s\n", f)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "  %-36s %14.4f %s\n", k, m[k], unitOf(k))
	}
	for _, k := range metricNames(traced) {
		v, ok := m[k]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured (%v)", k, v)
		}
		res.Metrics[k] = metricValue{Value: v, Unit: unitOf(k)}
	}
	return res, nil
}

func frontTimes(outs []outcome) []float64 {
	var f []float64
	for i := range outs {
		if outs[i].hasFront {
			f = append(f, ms(outs[i].front))
		}
	}
	return f
}

// layerMetrics derives the per-layer metrics of the traced phases from the
// probes and the /metrics deltas.
func layerMetrics(m map[string]float64, p *probes, d counters, reqs float64, fronts []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var hit, miss []float64
	for _, r := range p.replicas {
		r.mu.Lock()
		hit = append(hit, r.hit...)
		miss = append(miss, r.miss...)
		r.mu.Unlock()
	}
	m["net.front_ms_p50"] = orZero(quantile(fronts, 0.5))
	m["net.hop_ms_p50"] = orZero(quantile(p.hops, 0.5))
	m["gateway.self_ms_p50"] = orZero(quantile(p.gwSelf, 0.5))
	m["serve.handler_ms_p50_hit"] = orZero(quantile(hit, 0.5))
	m["serve.handler_ms_p50_miss"] = orZero(quantile(miss, 0.5))
	m["gateway.queue_wait_ms_mean"] = 1000 * ratio(d["zerotune_gateway_queue_wait_seconds_sum"], d["zerotune_gateway_queue_wait_seconds_count"])
	var routed, top float64
	for k, v := range d {
		if strings.HasPrefix(k, "zerotune_gateway_route_decisions_total/") {
			routed += v
			top = math.Max(top, v)
		}
	}
	m["gateway.route_share_max"] = ratio(top, routed)
	m["gateway.retries"] = d["zerotune_gateway_forward_retries_total"]
	m["gateway.spillover"] = d["zerotune_gateway_spillover_total"]
	lookups := d["zerotune_cache_hits_total"] + d["zerotune_cache_misses_total"] + d["zerotune_cache_coalesced_total"]
	m["serve.respcache_hit_ratio"] = ratio(d["zerotune_respcache_body_hits_total"], reqs)
	m["serve.fpcache_hit_ratio"] = ratio(d["zerotune_cache_hits_total"]+d["zerotune_cache_coalesced_total"], lookups)
	m["serve.batch_size_mean"] = ratio(d["zerotune_inferences_total"], d["zerotune_batches_total"])
	m["serve.batches_per_kreq"] = 1000 * ratio(d["zerotune_batches_total"], reqs)
}

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// workloadPlans decodes the plans (or, for tune, the queries with their
// OptiSample degrees) of the workload's first requests, for the direct
// layer measurements.
func workloadPlans(reqs []request, path string) ([]planInput, error) {
	var plans []planInput
	for _, r := range reqs {
		var pi planInput
		if path == "/v1/tune" {
			var req serve.TuneRequest
			if err := json.Unmarshal(r.body, &req); err != nil {
				return nil, err
			}
			cl, err := req.Cluster.Build()
			if err != nil {
				return nil, err
			}
			p := queryplan.NewPQP(req.Query)
			if err := optisample.Exact().Assign(p, cl, nil); err != nil {
				return nil, err
			}
			body, err := json.Marshal(serve.PredictRequest{Plan: p, Cluster: req.Cluster})
			if err != nil {
				return nil, err
			}
			pi = planInput{body: body, plan: p, cl: cl}
		} else {
			var req serve.PredictRequest
			if err := json.Unmarshal(r.body, &req); err != nil {
				return nil, err
			}
			cl, err := req.Cluster.Build()
			if err != nil {
				return nil, err
			}
			pi = planInput{body: r.body, plan: req.Plan, cl: cl}
		}
		if len(pi.plan.Placement) != len(pi.plan.Query.Ops) {
			if err := cluster.Place(pi.plan, pi.cl); err != nil {
				return nil, err
			}
		}
		plans = append(plans, pi)
	}
	return plans, nil
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(s, " ") + "]"
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler samples resident memory from /proc/self/statm.
type rssSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return
	}
	s.peak = math.Max(s.peak, pages*float64(os.Getpagesize())/(1<<20))
}

func (s *rssSampler) stop() float64 {
	close(s.stopc)
	s.wg.Wait()
	s.sample()
	return s.peak
}
