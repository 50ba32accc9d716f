package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// request is one timed request of a run.
type request struct {
	i      int // index in the workload's request stream
	lat    time.Duration
	points int
	ok     bool
}

// tally accumulates one run's end-to-end observations.
type tally struct {
	reqs   []request
	failed int
	// volumes counts volume answers and how many landed within (1±ε) of
	// the exact oracle; relErrs keeps their relative errors.
	volumes, volumesInEps int
	relErrs               []float64
	// volumeFailures counts volume checks that errored; they are not
	// timed requests but count against correctness.
	volumeFailures int
}

// record adds request i; a non-nil err (a failed call, a non-200, a short
// draw or a point outside the target) marks it failed.
func (t *tally) record(i int, lat time.Duration, points int, what string, err error) {
	if err != nil {
		t.failed++
		if t.failed <= 5 {
			logf("failure: %s: %v", what, err)
		}
		points = 0
	}
	t.reqs = append(t.reqs, request{i: i, lat: lat, points: points, ok: err == nil})
}

// volumeFail records a volume check that could not be made.
func (t *tally) volumeFail(what string, err error) {
	t.volumeFailures++
	logf("failure: %s: %v", what, err)
}

// volume records one volume answer against its exact value.
func (t *tally) volume(est, exact, eps float64) {
	t.volumes++
	rel := math.Abs(est-exact) / exact
	t.relErrs = append(t.relErrs, rel)
	if rel <= eps {
		t.volumesInEps++
	}
}

// merge folds o into t (per-client tallies of one run).
func (t *tally) merge(o *tally) {
	t.reqs = append(t.reqs, o.reqs...)
	t.failed += o.failed
	t.volumes += o.volumes
	t.volumesInEps += o.volumesInEps
	t.volumeFailures += o.volumeFailures
	t.relErrs = append(t.relErrs, o.relErrs...)
}

// endToEnd renders the end-to-end metrics of a run with the given number
// of closed-loop clients.
//
// Throughput and points/s are medians over windows of `window`
// consecutive requests of the stream — a whole number of the
// workload's schedule cycles, so every window asks for the same work —
// each window's rate being clients × completed ÷ Σ latency (Little's
// law for a closed loop; answer checking is outside the latencies).
// The median keeps a burst of machine noise from moving the figure.
//
// tailQ is the tail percentile this workload reports (0.99 or 0.90): the
// highest one with at least ten samples beyond it at its request rate.
func endToEnd(t *tally, clients, window int, tailQ float64, setups []float64, heapMB float64) map[string]metric {
	sort.Slice(t.reqs, func(a, b int) bool { return t.reqs[a].i < t.reqs[b].i })
	var lat []float64
	for _, r := range t.reqs {
		if r.ok {
			lat = append(lat, ms(r.lat))
		}
	}
	if beyond := float64(len(lat)) * (1 - tailQ); beyond < 10 {
		logf("warning: only %.0f samples beyond p%.0f (n=%d)", beyond, tailQ*100, len(lat))
	}
	window = min(window, len(t.reqs))
	var rps, pps []float64
	for k := 0; window > 0 && k+window <= len(t.reqs); k += window {
		var busy float64
		var done, pts int
		for _, r := range t.reqs[k : k+window] {
			busy += r.lat.Seconds()
			pts += r.points
			if r.ok {
				done++
			}
		}
		busy /= float64(clients)
		rps = append(rps, ratio(float64(done), busy))
		pps = append(pps, ratio(float64(pts), busy))
	}
	inEps := 1.0
	if t.volumes > 0 {
		inEps = float64(t.volumesInEps) / float64(t.volumes)
	}
	logf("requests=%d failed=%d windows=%d tail=p%.0f volumes=%d setups=%v", len(t.reqs), t.failed, len(rps), tailQ*100, t.volumes, setups)
	return map[string]metric{
		"throughput_rps":     {median(rps), "1/s"},
		"points_per_s":       {median(pps), "1/s"},
		"latency_p50_ms":     {quantile(lat, 0.5), "ms"},
		"latency_tail_ms":    {quantile(lat, tailQ), "ms"},
		"success_rate":       {ratio(float64(len(t.reqs)-t.failed), float64(len(t.reqs))), "fraction"},
		"volume_in_eps_frac": {inEps, "fraction"},
		"heap_inuse_mb":      {heapMB, "MB"},
		"setup_s":            {median(setups), "s"},
	}
}
