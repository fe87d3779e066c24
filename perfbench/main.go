// Command perfbench is the repository's end-to-end benchmark: it deploys the
// serving tier — a gateway with default options in front of two serve
// replicas, each on its own loopback listener — drives it open-loop from a
// seeded Poisson schedule, checks every answer against a reference computed
// apart from the serving path, and prints the metrics named in
// BENCHMARK.json. See README.md.
//
//	perfbench --workload predict-miss --seed 1 --seconds 15 --trace 0
//	perfbench steady --runs 10 --seconds 15 predict-miss tune
//	perfbench gencost
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// endToEnd and perLayer list the metrics of an untraced and of a traced
// run, in BENCHMARK.json's order.
var endToEnd = []string{
	"setup_s", "cpu_per_req_ref", "train_graph_cost_ref",
	"peak_rss_mb", "qerror_p50", "qerror_p50_unseen", "tune_lat_speedup",
}

var perLayer = []string{
	"gen.lag_p50_ms", "gen.lag_p99_ms",
	"trace.p50_ms_light_untraced", "trace.p50_ms_light_traced", "trace.overhead_ms_p50",
	"net.front_ms_p50", "net.hop_ms_p50", "gateway.accepts_per_kreq", "serve.accepts_per_kreq",
	"gateway.self_ms_p50", "gateway.queue_wait_ms_mean", "gateway.route_share_max",
	"gateway.retries", "gateway.spillover",
	"serve.handler_ms_p50_hit", "serve.handler_ms_p50_miss", "serve.respcache_hit_ratio",
	"serve.fpcache_hit_ratio", "serve.batch_size_mean", "serve.batches_per_kreq",
	"serve.decode_us", "serve.fingerprint_us",
	"features.encode_us_per_plan",
	"gnn.forward_us_per_graph_b1", "gnn.forward_us_per_graph_bN",
	"tensor.gemm32_gflops",
	"optimizer.candidates_per_query", "optimizer.estimate_ms_per_query", "optimizer.self_ms_per_query",
	"workload.gen_ms_per_kitem", "simulator.simulate_us_per_plan",
	"gnn.train_epoch_s", "flatvec.fallback_fit_ms", "gnn.eval_us_per_graph",
}

func metricNames(traced bool) []string {
	if traced {
		return perLayer
	}
	return endToEnd
}

func main() {
	if len(os.Args) > 1 {
		tool := map[string]func([]string) error{"steady": steady, "gencost": gencost}[os.Args[1]]
		if tool != nil {
			if err := tool(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
			return
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: predict-miss, predict-repeat or tune")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 15, "seconds of timed load")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	sp, ok := specByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (predict-miss, predict-repeat, tune), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(context.Background(), sp, *seed, *seconds, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
