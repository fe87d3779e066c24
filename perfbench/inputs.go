package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"zerotune/internal/cluster"
	"zerotune/internal/fault"
	"zerotune/internal/optisample"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
	"zerotune/internal/tensor"
	"zerotune/internal/workload"
)

// tuneStructures are the query types Fig. 10a tunes: three seen and three
// unseen structures.
var tuneStructures = []string{
	"linear", "2-way-join", "3-way-join",
	"2-chained-filters", "4-way-join", "5-way-join",
}

// tuneGenerator samples queries the way Fig. 10a does: seen parameter grid,
// high event rates and 4–8 workers, so parallelism matters.
func tuneGenerator(seed uint64) *workload.Generator {
	gen := &workload.Generator{
		Ranges:    workload.SeenRanges(),
		Strategy:  optisample.Default(),
		Seed:      seed,
		NodeTypes: cluster.SeenTypes(),
	}
	gen.Ranges.EventRates = []float64{20_000, 50_000, 100_000, 250_000, 500_000, 1_000_000}
	gen.Ranges.Workers = []int{4, 6, 8}
	return gen
}

// clusterSpec sends the sampled cluster in full, so the server builds
// exactly the cluster the benchmark's reference computation uses.
func clusterSpec(c *cluster.Cluster) serve.ClusterSpec {
	return serve.ClusterSpec{Nodes: c.Nodes, LinkGbps: c.LinkGbps}
}

// bodySource hands out the request bodies of one workload, in order. Bodies
// are a pure function of the seed and their position in the run.
type bodySource interface {
	// take returns the next n bodies, each tagged with the key the
	// correctness checks group answers by.
	take(n int) ([]request, error)
	// warm returns the set-up's warm-up requests: bodies the timed phases
	// never send, except that predict-repeat fills the caches with its hot
	// set, as traffic would before any measurement.
	warm() ([]request, error)
}

// request is one body and the identity of the plan or query it carries.
type request struct {
	body []byte
	key  int // index of the plan or query behind the body
}

// missSource yields a predict body for a plan not sent before: seen
// structures, OptiSample degrees, seeded clusters. Duplicates of earlier
// bodies are skipped, so every request misses both serve caches.
type missSource struct {
	gen  *workload.Generator
	seed uint64
	n    uint64
	seen map[uint64]bool // FNV-1a of every body sent
}

func newMissSource(seed uint64) *missSource {
	return &missSource{gen: workload.NewSeenGenerator(seed), seed: seed, seen: map[uint64]bool{}}
}

func (s *missSource) warm() ([]request, error) {
	return newMissSource(s.seed ^ warmSalt).take(warmupReqs)
}

// warmSalt separates warm-up inputs from the timed phases' inputs.
const warmSalt = 0xA11CE

func (s *missSource) take(n int) ([]request, error) {
	out := make([]request, 0, n)
	for len(out) < n {
		s.n++
		b, err := predictBody(s.gen, s.seed, s.n)
		if err != nil {
			return nil, err
		}
		h := fnv.New64a()
		_, _ = h.Write(b) // hash writes never fail
		if s.seen[h.Sum64()] {
			continue
		}
		s.seen[h.Sum64()] = true
		out = append(out, request{body: b, key: int(s.n)})
	}
	return out, nil
}

// predictBody builds the canonical /v1/predict body for draw seq.
func predictBody(gen *workload.Generator, seed, seq uint64) ([]byte, error) {
	structures := workload.SeenRanges().Structures
	q, c, err := gen.SampleQuery(structures[seq%uint64(len(structures))], seq)
	if err != nil {
		return nil, fmt.Errorf("sample plan %d: %w", seq, err)
	}
	p := queryplan.NewPQP(q)
	if err := optisample.Default().Assign(p, c, tensor.NewRNG(seed^seq*0x9E3779B97F4A7C15)); err != nil {
		return nil, fmt.Errorf("assign degrees %d: %w", seq, err)
	}
	p.Placement = nil // the server places the plan on the cluster it builds
	b, err := json.Marshal(serve.PredictRequest{Plan: p, Cluster: clusterSpec(c)})
	if err != nil {
		return nil, fmt.Errorf("encode plan %d: %w", seq, err)
	}
	return b, nil
}

// hotPlans is the size of predict-repeat's hot set; every replica's caches
// hold all of it at the default cache sizes.
const hotPlans = 64

// repeatSource alternates byte-identical repeats of a hot plan's canonical
// body with fresh re-serialisations of a hot plan: the same JSON value with
// key order and whitespace drawn anew, as other clients' encoders write it.
// Repeats hit the replica's body cache; re-serialisations miss it but hit the
// plan-fingerprint cache.
type repeatSource struct {
	seed uint64
	hot  [][]byte
	tree []any // decoded hot bodies, for re-serialisation
	n    uint64
}

func newRepeatSource(seed uint64) (*repeatSource, error) {
	gen := workload.NewSeenGenerator(seed ^ 0x5EED)
	s := &repeatSource{seed: seed}
	seen := map[string]bool{}
	for seq := uint64(1); len(s.hot) < hotPlans; seq++ {
		b, err := predictBody(gen, seed, seq)
		if err != nil {
			return nil, err
		}
		if seen[string(b)] {
			continue
		}
		seen[string(b)] = true
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			return nil, err
		}
		s.hot = append(s.hot, b)
		s.tree = append(s.tree, v)
	}
	return s, nil
}

// warmVariants is how many re-serialisations of each hot plan the warm-up
// sends, so that both replicas' fingerprint caches hold the whole hot set.
const warmVariants = 3

func (s *repeatSource) warm() ([]request, error) {
	var out []request
	for h, b := range s.hot {
		out = append(out, request{body: b, key: h})
		for v := 0; v < warmVariants; v++ {
			var buf bytes.Buffer
			reserialise(&buf, s.tree[h], &drawer{seed: s.seed ^ warmSalt, label: "perfbench.reserialise", n: uint64(h*warmVariants+v) << 20})
			out = append(out, request{body: buf.Bytes(), key: h})
		}
	}
	return out, nil
}

func (s *repeatSource) take(n int) ([]request, error) {
	out := make([]request, n)
	for i := range out {
		s.n++
		h := int(fault.Uniform(s.seed, "perfbench.hot", s.n) * hotPlans)
		body := s.hot[h]
		if s.n%2 == 0 {
			var buf bytes.Buffer
			reserialise(&buf, s.tree[h], &drawer{seed: s.seed, label: "perfbench.reserialise", n: s.n << 20})
			body = buf.Bytes()
		}
		out[i] = request{body: body, key: h}
	}
	return out, nil
}

// drawer is a seeded uniform stream.
type drawer struct {
	seed  uint64
	label string
	n     uint64
}

func (d *drawer) intn(k int) int {
	d.n++
	return int(fault.Uniform(d.seed, d.label, d.n) * float64(k))
}

var spaces = []string{"", "", " ", "\n", "  ", "\t"}

// reserialise writes v as JSON with object keys in a drawn order and drawn
// whitespace between tokens. Numbers keep their exact text (json.Number).
func reserialise(buf *bytes.Buffer, v any, d *drawer) {
	ws := func() { buf.WriteString(spaces[d.intn(len(spaces))]) }
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i := len(keys) - 1; i > 0; i-- {
			j := d.intn(i + 1)
			keys[i], keys[j] = keys[j], keys[i]
		}
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			ws()
			buf.WriteString(strconv.Quote(k))
			ws()
			buf.WriteByte(':')
			ws()
			reserialise(buf, x[k], d)
		}
		ws()
		buf.WriteByte('}')
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			ws()
			reserialise(buf, e, d)
		}
		buf.WriteByte(']')
	default:
		b, _ := json.Marshal(x) // strings, json.Number, bools and null always marshal
		buf.Write(b)
	}
}

// tuneSource yields /v1/tune bodies for distinct Fig. 10a queries.
type tuneSource struct {
	seed uint64
	gen  *workload.Generator
	n    uint64
}

func newTuneSource(seed uint64) *tuneSource {
	return &tuneSource{seed: seed, gen: tuneGenerator(seed)}
}

func (s *tuneSource) warm() ([]request, error) {
	return newTuneSource(s.seed ^ warmSalt).take(warmupReqs)
}

func (s *tuneSource) take(n int) ([]request, error) {
	out := make([]request, n)
	for i := range out {
		s.n++
		b, err := tuneBody(s.gen, s.n)
		if err != nil {
			return nil, err
		}
		out[i] = request{body: b, key: int(s.n)}
	}
	return out, nil
}

func tuneBody(gen *workload.Generator, seq uint64) ([]byte, error) {
	q, c, err := gen.SampleQuery(tuneStructures[seq%uint64(len(tuneStructures))], seq)
	if err != nil {
		return nil, fmt.Errorf("sample query %d: %w", seq, err)
	}
	b, err := json.Marshal(serve.TuneRequest{Query: q, Cluster: clusterSpec(c)})
	if err != nil {
		return nil, fmt.Errorf("encode query %d: %w", seq, err)
	}
	return b, nil
}
