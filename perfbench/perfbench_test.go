package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"zerotune/internal/serve"
)

// TestWorkloadsSmoke runs every workload untraced and traced for one second
// and checks the output schema and the correctness checks. It asserts
// nothing about timing.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sets the serving tier up six times")
	}
	defer func(n int) { setups = n }(setups)
	setups = 1
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), sp, 3, 1, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d", sp.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var out map[string]json.RawMessage
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			if got := keys(out); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Fatalf("result keys %v", got)
			}
			names := metricNames(traced)
			if len(res.Metrics) != len(names) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", sp.name, traced, len(res.Metrics), len(names))
			}
			for _, n := range names {
				if v, ok := res.Metrics[n]; !ok || v.Unit == "" {
					t.Fatalf("%s traced=%v: metric %s missing or without unit", sp.name, traced, n)
				}
			}
			if !traced {
				for _, n := range names {
					if res.Metrics[n].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v", sp.name, n, res.Metrics[n].Value)
					}
				}
			}
		}
	}
}

func keys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the metrics
// and workloads the benchmark prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for i, w := range b.Workloads {
		if i >= len(specs) || specs[i].name != w.Name {
			t.Fatalf("workload %d is %q", i, w.Name)
		}
	}
	check := func(list []struct{ Name, Unit string }, want []string) {
		if len(list) != len(want) {
			t.Fatalf("%d metrics listed, benchmark prints %d", len(list), len(want))
		}
		for i, m := range list {
			if m.Name != want[i] || m.Unit != unitOf(m.Name) {
				t.Errorf("metric %d: %s [%s], benchmark prints %s [%s]", i, m.Name, m.Unit, want[i], unitOf(want[i]))
			}
		}
	}
	check(b.EndToEnd, endToEnd)
	check(b.PerLayer, perLayer)
}

// TestQuartiles matches Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestPhaseCost checks the kernel normalisation: a program that spends
// twice the CPU per request reads twice the cost, a machine on which the
// kernel and the program both run twice as slow reads the same cost, and
// the kernel's own CPU is not charged to the requests.
func TestPhaseCost(t *testing.T) {
	marks := func(perMark time.Duration, kernel float64) []mark {
		kc := time.Duration(kernel * kernelPerMark * float64(time.Millisecond))
		var ms []mark
		var cpu time.Duration
		for i := 0; i < 5; i++ {
			ms = append(ms, mark{cpu: cpu, kernel: kernel, kernCPU: kc})
			cpu += perMark + kc
		}
		return ms
	}
	base, raw := phaseCost(marks(100*time.Millisecond, 0.5), 80)
	if math.Abs(raw-5) > 1e-9 || math.Abs(base-10) > 1e-9 {
		t.Fatalf("cost %v ref, %v ms per request; want 10 and 5", base, raw)
	}
	if slower, _ := phaseCost(marks(200*time.Millisecond, 0.5), 80); math.Abs(slower-2*base) > 1e-9 {
		t.Fatalf("twice the CPU per request reads %v, want %v", slower, 2*base)
	}
	if machine, _ := phaseCost(marks(200*time.Millisecond, 1), 80); math.Abs(machine-base) > 1e-9 {
		t.Fatalf("a machine twice as slow reads %v, want %v", machine, base)
	}
}

// TestReserialise checks that a re-serialised body is the same JSON value
// in different bytes.
func TestReserialise(t *testing.T) {
	src, err := newRepeatSource(5)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := src.take(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		var a, b any
		if err := json.Unmarshal(r.body, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(src.hot[r.key], &b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("re-serialised body of plan %d decodes differently", r.key)
		}
	}
	if !bytes.Equal(reqs[0].body, src.hot[reqs[0].key]) || bytes.Equal(reqs[1].body, src.hot[reqs[1].key]) {
		t.Fatal("want a byte-identical repeat, then a byte-distinct re-serialisation")
	}
}

// TestCheckerCatchesWrongAnswer is the negative control of the predict
// check: an answer off by more than the gate budget fails it.
func TestCheckerCatchesWrongAnswer(t *testing.T) {
	model, err := trainServed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	chk, err := newChecker(model)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := newMissSource(9).take(1)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(scale float64) outcome {
		var req serve.PredictRequest
		if err := json.Unmarshal(reqs[0].body, &req); err != nil {
			t.Fatal(err)
		}
		cl, err := req.Cluster.Build()
		if err != nil {
			t.Fatal(err)
		}
		g, err := chk.ref.EncodePlan(context.Background(), req.Plan, cl)
		if err != nil {
			t.Fatal(err)
		}
		p := chk.ref.Model.Predict(g)
		body, _ := json.Marshal(map[string]any{"latency_ms": p.LatencyMs * scale, "throughput_eps": p.ThroughputEPS, "model_id": model.id})
		return outcome{key: reqs[0].key, status: 200, resp: body}
	}
	bodies := map[int][]byte{reqs[0].key: reqs[0].body}
	chk.predict(context.Background(), bodies, []outcome{answer(1)})
	if len(chk.failures) != 0 {
		t.Fatalf("exact answer failed: %v", chk.failures)
	}
	chk.predict(context.Background(), bodies, []outcome{answer(1.05)})
	if len(chk.failures) == 0 {
		t.Fatal("an answer 5% off passed the check")
	}
}
