package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"zerotune/internal/client"
	"zerotune/internal/core"
	"zerotune/internal/gateway"
	"zerotune/internal/metrics"
	"zerotune/internal/serve"
	"zerotune/internal/workload"
)

// The served model is a fixture: the default architecture trained on a fixed
// seeded corpus with a fixed schedule, so every run serves the same weights
// and the training it costs repeats. The workload seed varies only traffic.
const (
	modelSeed   = 20240513
	modelItems  = 1000
	modelEpochs = 4
	replicas    = 2
	warmupReqs  = 20
)

// trained is the served model as an artifact, plus what its training cost.
type trained struct {
	artifact   []byte
	id         string
	items      []*workload.Item
	genS       float64   // corpus generation and labelling
	epochS     []float64 // wall time per epoch (Progress callback deltas)
	epochCPUMs []float64 // process CPU time per epoch
	kernelMs   []float64 // reference kernel before training and after each epoch
	losses     []float64 // mean training loss per epoch
}

// cost is the training's process CPU time per graph and epoch divided by
// the median kernel time, the kernel timed before training and after every
// epoch.
func (t *trained) cost() float64 {
	var cpu float64
	for _, c := range t.epochCPUMs {
		cpu += c
	}
	return cpu / float64(len(t.items)*len(t.epochCPUMs)) / metrics.Median(t.kernelMs)
}

func trainServed(ctx context.Context) (*trained, error) {
	t0 := time.Now()
	items, err := workload.NewSeenGenerator(modelSeed).Generate(workload.SeenRanges().Structures, modelItems)
	if err != nil {
		return nil, fmt.Errorf("generate training corpus: %w", err)
	}
	tr := &trained{items: items, genS: time.Since(t0).Seconds()}
	var last time.Time
	var lastCPU time.Duration
	opts, err := core.NewTrainOptions(
		core.WithEpochs(modelEpochs),
		core.WithSeed(modelSeed),
		core.WithWorkers(runtime.NumCPU()),
		// The kernel runs between epochs, outside their timing.
		core.WithProgress(func(_ int, loss float64) {
			tr.epochS = append(tr.epochS, time.Since(last).Seconds())
			tr.epochCPUMs = append(tr.epochCPUMs, ms(cpuTime()-lastCPU))
			tr.losses = append(tr.losses, loss)
			tr.kernelMs = append(tr.kernelMs, kernelMs(kernelPerMark))
			last, lastCPU = time.Now(), cpuTime()
		}),
	)
	if err != nil {
		return nil, err
	}
	tr.kernelMs = append(tr.kernelMs, kernelMs(kernelPerMark))
	last, lastCPU = time.Now(), cpuTime()
	zt, _, err := core.Train(ctx, items, opts)
	if err != nil {
		return nil, fmt.Errorf("train served model: %w", err)
	}
	var buf bytes.Buffer
	if err := zt.Save(&buf); err != nil {
		return nil, fmt.Errorf("save served model: %w", err)
	}
	tr.artifact = buf.Bytes()
	sum := sha256.Sum256(tr.artifact)
	tr.id = fmt.Sprintf("sha256:%x", sum[:6])
	return tr, nil
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// listening is one HTTP server on its own loopback listener.
type listening struct {
	ln  *countingListener
	srv *http.Server
	url string
}

func listen(h http.Handler) (*listening, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listening{ln: &countingListener{Listener: ln}, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go func() { _ = l.srv.Serve(l.ln) }() // returns http.ErrServerClosed on Shutdown
	return l, nil
}

// tier is the deployed serving topology: a gateway with default options on
// its own listener, reaching two serve replicas — each on its own listener —
// through gateway.HTTPBackend. Every option is the program's default except
// serve.Options.Compiled.
type tier struct {
	servers  []*serve.Server
	replicas []*listening
	gw       *gateway.Gateway
	front    *listening
	client   *client.Client
	probe    *probes // nil unless the run is traced
}

func startTier(model *trained, traced bool) (*tier, error) {
	t := &tier{}
	if traced {
		t.probe = newProbes()
	}
	var backends []serve.Backend
	for i := 0; i < replicas; i++ {
		// Each replica decodes the artifact itself, as a separate process
		// would, and compiles it through the engine's accuracy gate.
		zt, err := core.Load(bytes.NewReader(model.artifact))
		if err != nil {
			t.close()
			return nil, fmt.Errorf("load served model: %w", err)
		}
		srv := serve.New(serve.Options{Compiled: true})
		srv.Registry().Install(zt, model.id, "")
		if zt.Compiled() == nil {
			t.close()
			return nil, errors.New("compiled engine refused by its accuracy gate")
		}
		t.servers = append(t.servers, srv)
		var h http.Handler = srv
		if t.probe != nil {
			h = t.probe.replica(srv)
		}
		l, err := listen(h)
		if err != nil {
			t.close()
			return nil, err
		}
		srv.SetBoundAddr(l.ln.Addr().String())
		t.replicas = append(t.replicas, l)
		b, err := gateway.NewHTTPBackend(fmt.Sprintf("replica-%d", i), l.url, 0)
		if err != nil {
			t.close()
			return nil, err
		}
		var be serve.Backend = b
		if t.probe != nil {
			be = t.probe.backend(i, b)
		}
		backends = append(backends, be)
	}
	gw, err := gateway.New(backends, gateway.Options{})
	if err != nil {
		t.close()
		return nil, err
	}
	t.gw = gw
	gw.Start()
	var h http.Handler = gw
	if t.probe != nil {
		h = t.probe.gateway(gw)
	}
	if t.front, err = listen(h); err != nil {
		t.close()
		return nil, err
	}
	gw.SetBoundAddr(t.front.ln.Addr().String())
	if t.client, err = client.New(t.front.url); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// close shuts the listeners, the gateway's probe loop and the batchers, and
// drops idle client connections so the next tier starts cold.
func (t *tier) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if t.front != nil {
		_ = t.front.srv.Shutdown(ctx) // bounded by ctx; an error only means it timed out
	}
	if t.gw != nil {
		t.gw.Close()
	}
	for _, l := range t.replicas {
		_ = l.srv.Shutdown(ctx)
	}
	for _, s := range t.servers {
		s.Close()
	}
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// accepts sums the TCP accepts of the gateway and of the replicas.
func (t *tier) accepts() (front, hop int64) {
	front = t.front.ln.accepts.Load()
	for _, l := range t.replicas {
		hop += l.ln.accepts.Load()
	}
	return front, hop
}
