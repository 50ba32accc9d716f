// Command cdbquery evaluates a query of a constraint database program,
// either symbolically (Fourier–Motzkin quantifier elimination, the
// classical baseline) or approximately (sampling plans and hull
// reconstruction, the paper's contribution), through the cdb.DB handle.
// Ctrl-C cancels an in-flight sampling evaluation mid-walk.
//
// Usage:
//
//	cdbquery -file db.cdb -query Q -mode symbolic
//	cdbquery -file db.cdb -query Q -mode volume
//	cdbquery -file db.cdb -query Q -mode reconstruct -n 500
//	cdbquery -file db.cdb -query Q -explain
//	cdbquery -file db.cdb -query Q -audit
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	cdb "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cdbquery: ")
	var (
		file    = flag.String("file", "", "constraint database program (required)")
		qName   = flag.String("query", "", "query name (required)")
		mode    = flag.String("mode", "symbolic", "symbolic | plan | volume | reconstruct")
		n       = flag.Int("n", 400, "samples per disjunct for reconstruction")
		seed    = flag.Uint64("seed", 42, "random seed")
		explain = flag.Bool("explain", false, "print the normalized (canonical) sampling plan, its cache key and per-disjunct cache status before evaluating; with -mode volume the evaluation runs afterwards and a second report shows the warmed cache")
		trace   = flag.Bool("trace", false, "trace the evaluation and print the span tree (per-stage durations and counters) to stderr")
		audit   = flag.Bool("audit", false, "warm the query's sampler, run one quality-audit round (empirical cell masses and disjunct shares vs exact symbolic volumes) and print the verdicts and quality report")
	)
	flag.Parse()
	if *file == "" || *qName == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*file)
	if err != nil {
		log.Fatal(err)
	}
	db, err := cdb.Open(string(src), cdb.WithPrepSeed(*seed))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if _, ok := db.Database().Query(*qName); !ok {
		log.Fatalf("query %q not found", *qName)
	}
	expr := db.Rel(*qName)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *trace {
		var root *cdb.Span
		ctx, root = cdb.StartTrace(ctx, "cdbquery")
		defer func() {
			root.End()
			fmt.Fprint(os.Stderr, root.String())
		}()
	}

	if *audit {
		// Warm the sampler (registering it with the auditor), run one
		// on-demand audit sweep, and print the verdicts plus the
		// accumulated quality report.
		if _, err := expr.SampleNSeeded(ctx, 512, *seed); err != nil {
			log.Fatal(err)
		}
		events, err := db.AuditOnce(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if len(events) == 0 {
			fmt.Println("no auditable entries (target outside the exact-oracle fragment?)")
		}
		for _, ev := range events {
			fmt.Printf("audit %-4s check=%-6s stat=%.3f threshold=%.3f samples=%d %s\n",
				ev.Outcome, ev.Check, ev.Stat, ev.Threshold, ev.Samples, ev.Detail)
		}
		rep, err := expr.Explain(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if q, ok := db.QualityReport(rep.CacheKey); ok {
			out, err := json.MarshalIndent(q, "", "  ")
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(string(out))
		}
		return
	}

	if *explain {
		rep, err := expr.Explain(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(rep)
		if *mode != "volume" {
			return
		}
		// Evaluate, then re-explain: the second report shows the
		// now-warm (or negative) cache entry.
		v, err := expr.Volume(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("volume(%s) ≈ %.6g\n", *qName, v)
		rep, err = expr.Explain(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("after evaluation: cache %s\n", rep.Cache)
		return
	}

	switch *mode {
	case "plan":
		rep, err := expr.Explain(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(rep.Plan)
	case "symbolic":
		// The eliminated DNF is cached in the handle's prepared-symbolic
		// LRU (keyed by the canonical plan hash), and — unlike the
		// sampling modes — the full first-order algebra (minus of a
		// projection, division / forall) is accepted.
		rel, err := expr.EvalSymbolic(ctx)
		if err != nil {
			log.Fatal(err)
		}
		rel.Name = *qName
		fmt.Println(rel.String())
		fmt.Println(rel.Source())
		fmt.Printf("-- %d tuple(s), description size %d\n", len(rel.Tuples), rel.Size())
	case "volume":
		v, err := expr.Volume(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("volume(%s) ≈ %.6g\n", *qName, v)
	case "reconstruct":
		est, err := expr.Reconstruct(ctx, *n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("reconstruction of %s: %d hull(s), %d points total\n",
			*qName, len(est.Hulls), est.VertexCount())
		for i, h := range est.Hulls {
			vs := h.Vertices()
			fmt.Printf("hull %d: %d extreme points\n", i, len(vs))
			for _, v := range vs {
				fmt.Printf("  %v\n", v)
			}
		}
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}
