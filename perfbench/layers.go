package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zerotune/internal/client"
	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/features"
	"zerotune/internal/gnn"
	"zerotune/internal/nn"
	"zerotune/internal/obs"
	"zerotune/internal/optimizer"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
	"zerotune/internal/simulator"
	"zerotune/internal/tensor"
)

// probes are the traced run's timing wrappers around what the benchmark
// hands to the program: the gateway's and the replicas' handlers and the
// gateway's backends. They record nothing while on is false.
type probes struct {
	on       atomic.Bool
	front    *handlerTimer   // gateway ServeHTTP, keyed by client address
	replicas []*handlerTimer // replica ServeHTTP
	mu       sync.Mutex
	hops     []float64 // Backend.Call minus replica ServeHTTP, ms
	gwSelf   []float64 // gateway ServeHTTP minus time in backends, ms
}

func newProbes() *probes {
	p := &probes{}
	p.front = &handlerTimer{p: p, last: map[string]time.Duration{}}
	return p
}

// handlerTimer times ServeHTTP per request and remembers the last duration
// per client address: an HTTP/1.1 connection carries one request at a time,
// so the caller that used that connection can subtract the handler's time
// from its own.
type handlerTimer struct {
	p    *probes
	h    http.Handler
	gw   bool
	mu   sync.Mutex
	last map[string]time.Duration
	hit  []float64 // replica handler ms, answers with "cached":true
	miss []float64 // replica handler ms, all other answers
}

func (p *probes) gateway(h http.Handler) http.Handler {
	p.front.h, p.front.gw = h, true
	return p.front
}

func (p *probes) replica(h http.Handler) http.Handler {
	t := &handlerTimer{p: p, h: h, last: map[string]time.Duration{}}
	p.replicas = append(p.replicas, t)
	return t
}

func (p *probes) backend(i int, b serve.Backend) serve.Backend {
	return &backendTimer{p: p, b: b, replica: i}
}

type backendTimeKey struct{}

// sniffWriter keeps the response body for the hit/miss split.
type sniffWriter struct {
	http.ResponseWriter
	body []byte
}

func (w *sniffWriter) Write(b []byte) (int, error) {
	if len(w.body) < 512 {
		w.body = append(w.body, b...)
	}
	return w.ResponseWriter.Write(b)
}

func (t *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.p.on.Load() || !strings.HasPrefix(r.URL.Path, "/v1/") {
		t.h.ServeHTTP(w, r)
		return
	}
	var inBackends atomic.Int64
	if t.gw {
		r = r.WithContext(context.WithValue(r.Context(), backendTimeKey{}, &inBackends))
	}
	sw := &sniffWriter{ResponseWriter: w}
	start := time.Now()
	t.h.ServeHTTP(sw, r)
	d := time.Since(start)
	t.mu.Lock()
	t.last[r.RemoteAddr] = d
	if !t.gw {
		if bytes.Contains(sw.body, []byte(`"cached":true`)) {
			t.hit = append(t.hit, ms(d))
		} else {
			t.miss = append(t.miss, ms(d))
		}
	}
	t.mu.Unlock()
	if t.gw {
		t.p.mu.Lock()
		t.p.gwSelf = append(t.p.gwSelf, ms(d-time.Duration(inBackends.Load())))
		t.p.mu.Unlock()
	}
}

// take returns and forgets the last handler duration seen from addr.
func (t *handlerTimer) take(addr string) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.last[addr]
	delete(t.last, addr)
	return d, ok
}

// backendTimer times gateway → replica calls.
type backendTimer struct {
	p       *probes
	b       serve.Backend
	replica int
}

func (b *backendTimer) Name() string { return b.b.Name() }

func (b *backendTimer) Call(ctx context.Context, path string, body []byte) (int, []byte, error) {
	if !b.p.on.Load() || !strings.HasPrefix(path, "/v1/") {
		return b.b.Call(ctx, path, body)
	}
	var local string
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(ci httptrace.GotConnInfo) { local = ci.Conn.LocalAddr().String() },
	})
	start := time.Now()
	status, resp, err := b.b.Call(ctx, path, body)
	d := time.Since(start)
	if acc, ok := ctx.Value(backendTimeKey{}).(*atomic.Int64); ok {
		acc.Add(int64(d))
	}
	if rd, ok := b.p.replicas[b.replica].take(local); ok && local != "" {
		b.p.mu.Lock()
		b.p.hops = append(b.p.hops, ms(d-rd))
		b.p.mu.Unlock()
	}
	return status, resp, err
}

// counters reads the program's /metrics pages. Counter deltas across a phase
// give per-layer counts without instrumenting the program.
type counters map[string]float64

func scrape(ctx context.Context, t *tier) (counters, error) {
	c := counters{}
	pages := []string{t.front.url}
	for _, r := range t.replicas {
		pages = append(pages, r.url)
	}
	for i, base := range pages {
		cl, err := client.New(base)
		if err != nil {
			return nil, err
		}
		_, body, err := cl.Call(ctx, "/metrics", nil)
		if err != nil {
			return nil, err
		}
		samples, err := obs.ParseText(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		for _, s := range samples {
			key := s.Name
			if i == 0 {
				if r := s.Labels["replica"]; r != "" && s.Name == "zerotune_gateway_route_decisions_total" {
					key += "/" + r
				}
			}
			c[key] += s.Value
		}
	}
	return c, nil
}

func (c counters) sub(prev counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - prev[k]
	}
	return d
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeEach runs f n times and returns the mean time per call in µs.
func timeEach(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
}

// directLayers times public functions of the program on the workload's own
// inputs: plans decoded from its bodies and the queries behind them.
func directLayers(ctx context.Context, model *trained, plans []planInput, m map[string]float64) error {
	zt, err := core.Load(bytes.NewReader(model.artifact))
	if err != nil {
		return err
	}
	if err := zt.Compile(gnn.CompileOptions{}); err != nil {
		return err
	}
	n := len(plans)
	m["serve.decode_us"] = timeEach(n, func(i int) {
		var req serve.PredictRequest
		_ = json.Unmarshal(plans[i].body, &req) // workloadPlans decoded these bodies without error
	})
	// The plans are placed already, so encoding and simulating them leaves
	// them unchanged.
	graphs := make([]*features.Graph, n)
	var encErr error
	m["features.encode_us_per_plan"] = timeEach(n, func(i int) {
		g, err := zt.EncodePlan(ctx, plans[i].plan, plans[i].cl)
		if err != nil && encErr == nil {
			encErr = err
		}
		graphs[i] = g
	})
	if encErr != nil {
		return encErr
	}
	m["serve.fingerprint_us"] = timeEach(n, func(i int) { _ = serve.PlanFingerprint(graphs[i], zt.Mask) })
	// The optimizer over the workload's queries, with a timing wrapper
	// around the batch estimator it calls.
	est := &timedEstimator{inner: zt.Estimator().(optimizer.BatchCostEstimator)}
	var cands int
	start := time.Now()
	for i := range plans {
		res, err := optimizer.Tune(ctx, plans[i].plan.Query, plans[i].cl, est, optimizer.DefaultTuneOptions())
		if err != nil {
			return err
		}
		cands += res.Candidates
	}
	total := time.Since(start)
	m["optimizer.candidates_per_query"] = float64(cands) / float64(n)
	m["optimizer.estimate_ms_per_query"] = ms(est.spent) / float64(n)
	m["optimizer.self_ms_per_query"] = ms(total-est.spent) / float64(n)

	cm := zt.Compiled()
	// The compiled forward pass over the optimizer's candidate plans, one
	// at a time and in the batches the tune path hands to PredictBatch (each
	// query's candidates).
	var candGraphs [][]*features.Graph
	var flat []*features.Graph
	for _, cb := range est.batches {
		gs := make([]*features.Graph, len(cb.ps))
		for i, p := range cb.ps {
			if gs[i], err = zt.EncodePlan(ctx, p, cb.c); err != nil {
				return err
			}
		}
		candGraphs = append(candGraphs, gs)
		flat = append(flat, gs...)
	}
	m["gnn.forward_us_per_graph_b1"] = timeEach(len(flat), func(i int) { _ = cm.PredictBatch(flat[i : i+1]) })
	m["gnn.forward_us_per_graph_bN"] = timeEach(len(candGraphs), func(i int) {
		_ = cm.PredictBatch(candGraphs[i])
	}) * float64(len(candGraphs)) / float64(len(flat))
	m["gnn.eval_us_per_graph"] = timeEach(n, func(i int) { _ = zt.Model.Predict(graphs[i]) })
	var simErr error
	m["simulator.simulate_us_per_plan"] = timeEach(n, func(i int) {
		if _, err := simulator.Simulate(plans[i].plan, plans[i].cl, simulator.Options{DisableNoise: true}); err != nil && simErr == nil {
			simErr = err
		}
	})
	if simErr != nil {
		return simErr
	}
	m["tensor.gemm32_gflops"] = gemmGflops(zt.Model)
	start = time.Now()
	if _, err := core.FitFallback(model.items); err != nil {
		return err
	}
	m["flatvec.fallback_fit_ms"] = ms(time.Since(start))
	return nil
}

// planInput is one plan of the workload with its cluster.
type planInput struct {
	body []byte
	plan *queryplan.PQP
	cl   *cluster.Cluster
}

// timedEstimator adds up the time spent in the wrapped batch estimator and
// keeps the candidate batches it was asked to score.
type timedEstimator struct {
	inner   optimizer.BatchCostEstimator
	spent   time.Duration
	batches []candidateBatch
}

type candidateBatch struct {
	ps []*queryplan.PQP
	c  *cluster.Cluster
}

func (e *timedEstimator) Estimate(ctx context.Context, p *queryplan.PQP, c *cluster.Cluster) (optimizer.Estimate, error) {
	start := time.Now()
	defer func() { e.spent += time.Since(start) }()
	return e.inner.Estimate(ctx, p, c)
}

func (e *timedEstimator) EstimateBatch(ctx context.Context, ps []*queryplan.PQP, c *cluster.Cluster) ([]optimizer.Estimate, error) {
	start := time.Now()
	defer func() {
		e.spent += time.Since(start)
		e.batches = append(e.batches, candidateBatch{ps: ps, c: c})
	}()
	return e.inner.EstimateBatch(ctx, ps, c)
}

// gemmRows is the row count of the GEMM measurement: one row per node of a
// batch of a few plans.
const gemmRows = 64

// gemmGflops runs Gemm32BiasActInto at every layer shape of the model and
// reports flops computed from the shapes (2·M·K·N per call) per second.
func gemmGflops(m *gnn.Model) float64 {
	var layers []*nn.Linear
	for _, mlp := range []*nn.MLP{m.EncRes, m.CombineOp, m.CombineRes, m.CombineMap, m.LatHead, m.TptHead} {
		layers = append(layers, mlp.Layers...)
	}
	for _, mlp := range m.EncOp {
		layers = append(layers, mlp.Layers...)
	}
	type shape struct {
		x, wt, y *tensor.Matrix32
		bias     tensor.Vector32
		flops    float64
	}
	var shapes []shape
	for _, l := range layers {
		wt := tensor.TransposedPadded32(l.W)
		k, np := wt.Rows, wt.Stride
		x := tensor.NewMatrix32Strided(gemmRows, k, tensor.PadTo16(k))
		for i := range x.Data {
			x.Data[i] = float32(i%7) * 0.1
		}
		shapes = append(shapes, shape{x: x, wt: wt, y: tensor.NewMatrix32Strided(gemmRows, l.W.Rows, np),
			bias: make(tensor.Vector32, np), flops: 2 * gemmRows * float64(k) * float64(l.W.Rows)})
	}
	var flops float64
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for _, s := range shapes {
			tensor.Gemm32BiasActInto(s.x, s.wt, s.bias, s.y, tensor.Act32LeakyReLU)
			flops += s.flops
		}
	}
	return flops / time.Since(start).Seconds() / 1e9
}
