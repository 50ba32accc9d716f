// Command perfbench is the repository's benchmark: seeded closed-loop
// workloads against the public cdb facade (warm_draw, adhoc_sql) and an
// in-process three-node cdbserve cluster (http_cluster). Every answer is
// checked against an exact oracle. The last line of standard output is
// one JSON object with the run's metrics; see README.md.
//
//	go run . --workload warm_draw --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	cdb "repro"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

func main() {
	workload := flag.String("workload", "", "warm_draw | adhoc_sql | http_cluster")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced layer-by-layer replay and prints per-layer metrics")
	flag.Parse()

	d := time.Duration(*seconds * float64(time.Second))
	ctx := context.Background()
	var (
		res *result
		err error
	)
	switch {
	case *trace == 1:
		res, err = traced(ctx, *workload, *seed, d)
	case *workload == "warm_draw":
		res, err = warmDraw(ctx, *seed, d)
	case *workload == "adhoc_sql":
		res, err = adhocSQL(ctx, *seed, d)
	case *workload == "http_cluster":
		res, err = httpCluster(ctx, *seed, d)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// heapInuseMB is the live heap after a forced GC: what the run's caches
// keep resident.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// finish turns an untraced run's tally into the result (see endToEnd for
// clients, window and tailQ). It must run while the workload's handles
// are still open, so heap_inuse_mb sees their caches.
func finish(t *tally, clients, window int, tailQ float64, setups []float64) *result {
	m := endToEnd(t, clients, window, tailQ, setups, heapInuseMB())
	return &result{
		Correct:   correct(t),
		Attempted: len(t.reqs),
		Failed:    t.failed + t.volumeFailures,
		Metrics:   m,
	}
}

// correct holds when no request failed and the volume answers outside
// (1±ε) of the exact oracle are not too many for the estimator's
// guarantee: each answer may miss with probability δ, so a run fails
// only when P(Binomial(n, δ) ≥ misses) drops below 1%.
func correct(t *tally) bool {
	if t.failed > 0 || t.volumeFailures > 0 {
		return false
	}
	return binomialTail(t.volumes, t.volumes-t.volumesInEps, cdb.DefaultOptions().Params.Delta) >= 0.01
}

// binomialTail is P(X ≥ k) for X ~ Binomial(n, p).
func binomialTail(n, k int, p float64) float64 {
	below, term := 0.0, math.Pow(1-p, float64(n)) // term = P(X = i)
	for i := 0; i < k; i++ {
		below += term
		term *= float64(n-i) / float64(i+1) * p / (1 - p)
	}
	return 1 - below
}
