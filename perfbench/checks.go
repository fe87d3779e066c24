package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/gnn"
	"zerotune/internal/metrics"
	"zerotune/internal/optimizer"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
	"zerotune/internal/simulator"
	"zerotune/internal/workload"
)

// gateBudget is the compiled engine's accuracy budget: served answers must
// lie within this q-error of the float64 reference forward pass.
const gateBudget = 1 + gnn.DefaultGateThreshold

// checker verifies served answers against a reference computed apart from
// the serving path: the uncompiled float64 model, decoded from the artifact.
type checker struct {
	ref      *core.ZeroTune
	modelID  string
	failures []string
	first    map[int]answer // first answer per plan, for bit-identity
}

type answer struct{ lat, tpt float64 }

func newChecker(model *trained) (*checker, error) {
	ref, err := core.Load(bytes.NewReader(model.artifact))
	if err != nil {
		return nil, fmt.Errorf("load reference model: %w", err)
	}
	return &checker{ref: ref, modelID: model.id, first: map[int]answer{}}, nil
}

func (c *checker) failf(format string, args ...any) {
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// agree reports whether two estimates agree within the gate budget.
func agree(lat, tpt, refLat, refTpt float64) bool {
	return metrics.QError(refLat, lat) <= gateBudget && metrics.QError(refTpt, tpt) <= gateBudget
}

// predict checks every answered /v1/predict request: 200, not degraded,
// the served model's ID, and within the gate budget of the reference.
// Answers to one plan — repeated or re-serialised bodies — must be
// bit-identical.
func (c *checker) predict(ctx context.Context, reqs map[int][]byte, outs []outcome) {
	for i := range outs {
		o := &outs[i]
		if o.err != nil || o.status != 200 {
			continue // counted as failed, not as a wrong answer
		}
		var resp serve.PredictResponse
		if err := json.Unmarshal(o.resp, &resp); err != nil {
			c.failf("predict answer does not decode: %v", err)
			continue
		}
		if resp.Degraded || resp.ModelID != c.modelID {
			c.failf("predict answer degraded=%v model=%q, want %q", resp.Degraded, resp.ModelID, c.modelID)
			continue
		}
		got := answer{resp.LatencyMs, resp.ThroughputEPS}
		if prev, ok := c.first[o.key]; ok {
			if math.Float64bits(prev.lat) != math.Float64bits(got.lat) || math.Float64bits(prev.tpt) != math.Float64bits(got.tpt) {
				c.failf("plan %d answered %v and %v", o.key, prev, got)
			}
			continue
		}
		c.first[o.key] = got
		var req serve.PredictRequest
		if err := json.Unmarshal(reqs[o.key], &req); err != nil {
			c.failf("request %d does not decode: %v", o.key, err)
			continue
		}
		cl, err := req.Cluster.Build()
		if err != nil {
			c.failf("request %d cluster: %v", o.key, err)
			continue
		}
		g, err := c.ref.EncodePlan(ctx, req.Plan, cl)
		if err != nil {
			c.failf("request %d encode: %v", o.key, err)
			continue
		}
		ref := c.ref.Model.Predict(g)
		if !agree(got.lat, got.tpt, ref.LatencyMs, ref.ThroughputEPS) {
			c.failf("plan %d served (%g, %g), reference (%g, %g)", o.key, got.lat, got.tpt, ref.LatencyMs, ref.ThroughputEPS)
		}
	}
}

// tune checks every answered /v1/tune request: one degree per operator in
// [1, total cluster cores], the served model's ID, and an estimate within
// the gate budget of the reference model's prediction for the returned plan.
func (c *checker) tune(ctx context.Context, reqs map[int][]byte, outs []outcome) {
	for i := range outs {
		o := &outs[i]
		if o.err != nil || o.status != 200 {
			continue
		}
		var resp serve.TuneResponse
		if err := json.Unmarshal(o.resp, &resp); err != nil {
			c.failf("tune answer does not decode: %v", err)
			continue
		}
		var req serve.TuneRequest
		if err := json.Unmarshal(reqs[o.key], &req); err != nil {
			c.failf("request %d does not decode: %v", o.key, err)
			continue
		}
		cl, err := req.Cluster.Build()
		if err != nil {
			c.failf("request %d cluster: %v", o.key, err)
			continue
		}
		p, err := planWithDegrees(req.Query, cl, resp.Degrees)
		if err != nil {
			c.failf("query %d: %v", o.key, err)
			continue
		}
		if resp.ModelID != c.modelID || len(resp.DegreesVector) != len(req.Query.Ops) {
			c.failf("query %d: model %q, %d degrees for %d operators", o.key, resp.ModelID, len(resp.DegreesVector), len(req.Query.Ops))
			continue
		}
		ref, err := c.ref.Predict(ctx, p, cl)
		if err != nil {
			c.failf("query %d reference: %v", o.key, err)
			continue
		}
		if !agree(resp.LatencyMs, resp.ThroughputEPS, ref.LatencyMs, ref.ThroughputEPS) {
			c.failf("query %d served (%g, %g), reference (%g, %g)", o.key, resp.LatencyMs, resp.ThroughputEPS, ref.LatencyMs, ref.ThroughputEPS)
		}
	}
}

// check verifies one phase's answers; reqs are the phase's requests.
func (c *checker) check(ctx context.Context, path string, reqs []request, outs []outcome) {
	bodies := make(map[int][]byte, len(reqs))
	for _, r := range reqs {
		bodies[r.key] = r.body
	}
	if path == "/v1/tune" {
		c.tune(ctx, bodies, outs)
	} else {
		c.predict(ctx, bodies, outs)
	}
}

// planWithDegrees builds the plan a tune answer describes, checking that it
// names every operator once with a degree in [1, total cores].
func planWithDegrees(q *queryplan.Query, cl *cluster.Cluster, degrees map[string]int) (*queryplan.PQP, error) {
	if len(degrees) != len(q.Ops) {
		return nil, fmt.Errorf("%d degrees for %d operators", len(degrees), len(q.Ops))
	}
	p := queryplan.NewPQP(q)
	for _, op := range q.Ops {
		d, ok := degrees[strconv.Itoa(op.ID)]
		if !ok || d < 1 || d > cl.TotalCores() {
			return nil, fmt.Errorf("operator %d degree %d outside [1, %d]", op.ID, d, cl.TotalCores())
		}
		p.SetDegree(op.ID, d)
	}
	if err := cluster.Place(p, cl); err != nil {
		return nil, err
	}
	return p, nil
}

// identical checks that a repeated request got the answer the first one got.
func (c *checker) identical(a, b outcome) {
	if a.err != nil || b.err != nil || a.status != 200 || b.status != 200 {
		return
	}
	if !bytes.Equal(a.resp, b.resp) {
		c.failf("repeated request answered %q then %q", a.resp, b.resp)
	}
}

// Quality is measured on fixed held-out sets, so it repeats exactly from run
// to run; the workload seed varies only the traffic.
const (
	evalSeed    = 77
	evalItems   = 300
	tuneQueries = 60
)

// quality holds the served model's accuracy (Table IV) and the quality of
// the plans its optimizer picks (Fig. 10a).
type quality struct {
	qerrSeen, qerrUnseen   float64 // median latency q-error
	constSeen, constUnseen float64 // same for a constant predictor
	speedup                float64 // geometric mean greedy / tuned latency
}

func noiseFree(p *queryplan.PQP, cl *cluster.Cluster) (optimizer.Estimate, error) {
	r, err := simulator.Simulate(p, cl, simulator.Options{DisableNoise: true})
	if err != nil {
		return optimizer.Estimate{}, err
	}
	return optimizer.Estimate{LatencyMs: r.LatencyMs, ThroughputEPS: r.ThroughputEPS}, nil
}

// measureQuality computes q-error with the benchmark's own code from the
// reference model's predictions and the simulator's noise-free latency, and
// the Fig. 10a speed-up of plans tuned by the served (compiled) engine over
// the greedy tuner.
func (c *checker) measureQuality(ctx context.Context, model *trained) (quality, error) {
	var q quality
	var trainLat []float64
	for _, it := range model.items {
		trainLat = append(trainLat, it.LatencyMs)
	}
	constant := metrics.Median(trainLat)
	sets := []struct {
		gen        *workload.Generator
		structures []string
		model, con *float64
	}{
		{workload.NewSeenGenerator(evalSeed), workload.SeenRanges().Structures, &q.qerrSeen, &q.constSeen},
		{workload.NewUnseenGenerator(evalSeed), workload.UnseenRanges().Structures, &q.qerrUnseen, &q.constUnseen},
	}
	for _, s := range sets {
		items, err := s.gen.Generate(s.structures, evalItems)
		if err != nil {
			return q, err
		}
		var mq, cq []float64
		for _, it := range items {
			truth, err := noiseFree(it.Plan, it.Cluster)
			if err != nil {
				return q, err
			}
			g, err := c.ref.EncodePlan(ctx, it.Plan, it.Cluster)
			if err != nil {
				return q, err
			}
			mq = append(mq, metrics.QError(truth.LatencyMs, c.ref.Model.Predict(g).LatencyMs))
			cq = append(cq, metrics.QError(truth.LatencyMs, constant))
		}
		*s.model, *s.con = metrics.Median(mq), metrics.Median(cq)
	}

	served, err := core.Load(bytes.NewReader(model.artifact))
	if err != nil {
		return q, err
	}
	if err := served.Compile(gnn.CompileOptions{}); err != nil {
		return q, err
	}
	gen := tuneGenerator(evalSeed)
	var logSum float64
	for i := 0; i < tuneQueries; i++ {
		qu, cl, err := gen.SampleQuery(tuneStructures[i%len(tuneStructures)], uint64(i+1))
		if err != nil {
			return q, err
		}
		tuned, err := served.Tune(ctx, qu, cl, optimizer.DefaultTuneOptions())
		if err != nil {
			return q, err
		}
		zt, err := noiseFree(tuned.Plan, cl)
		if err != nil {
			return q, err
		}
		greedy, err := optimizer.Greedy(qu, cl, noiseFree, 20, 0.5)
		if err != nil {
			return q, err
		}
		gr, err := noiseFree(greedy.Plan, cl)
		if err != nil {
			return q, err
		}
		logSum += math.Log(gr.LatencyMs / zt.LatencyMs)
	}
	q.speedup = math.Exp(logSum / tuneQueries)

	if !(q.qerrSeen < q.constSeen && q.qerrUnseen < q.constUnseen) {
		c.failf("model q-error (seen %.3f, unseen %.3f) does not beat a constant predictor (%.3f, %.3f)",
			q.qerrSeen, q.qerrUnseen, q.constSeen, q.constUnseen)
	}
	if n := len(model.losses); n < 2 || !(model.losses[n-1] < model.losses[0]) {
		c.failf("training loss did not fall: %v", model.losses)
	}
	return q, nil
}
