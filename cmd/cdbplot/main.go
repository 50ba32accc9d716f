// Command cdbplot renders a 2-D relation of a constraint database as an
// SVG picture, optionally overlaying almost-uniform samples and the
// convex-hull reconstruction — a visual check of the paper's generators
// in the GIS setting its introduction motivates.
//
// Usage:
//
//	cdbplot -file db.cdb -rel S -o out.svg
//	cdbplot -file db.cdb -rel S -samples 500 -hull -o out.svg
package main

import (
	"flag"
	"log"
	"os"

	cdb "repro"
	"repro/internal/geom"
	"repro/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cdbplot: ")
	var (
		file    = flag.String("file", "", "constraint database program (required)")
		relName = flag.String("rel", "", "2-D relation to draw (required)")
		out     = flag.String("o", "plot.svg", "output SVG path")
		samples = flag.Int("samples", 0, "overlay N almost-uniform samples")
		hull    = flag.Bool("hull", false, "overlay the hull of the samples")
		width   = flag.Int("w", 640, "canvas width in pixels")
		height  = flag.Int("h", 640, "canvas height in pixels")
		seed    = flag.Uint64("seed", 42, "random seed")
	)
	flag.Parse()
	if *file == "" || *relName == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*file)
	if err != nil {
		log.Fatal(err)
	}
	db, err := cdb.Parse(string(src))
	if err != nil {
		log.Fatal(err)
	}
	rel, ok := db.Relation(*relName)
	if !ok {
		log.Fatalf("relation %q not found (have %v)", *relName, db.Names)
	}
	if rel.Arity() != 2 {
		log.Fatalf("cdbplot draws 2-D relations; %s has arity %d", *relName, rel.Arity())
	}
	lo, hi, okBox := rel.BoundingBox()
	if !okBox {
		log.Fatalf("relation %s is empty or unbounded", *relName)
	}
	// Pad the viewport by 5%.
	for j := range lo {
		pad := 0.05 * (hi[j] - lo[j])
		lo[j] -= pad
		hi[j] += pad
	}
	c := viz.NewCanvas(*width, *height, lo, hi)
	if err := viz.DrawRelation(c, rel, viz.Palette[0], "#333333", 0.35); err != nil {
		log.Fatal(err)
	}

	if *samples > 0 {
		// The draws bind the seed after the preparation's, so they do not
		// reuse the random stream the volume pass walked.
		ps, err := cdb.PrepareSampler(rel, *seed, cdb.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		gen, err := ps.NewObservable(*seed + 1)
		if err != nil {
			log.Fatal(err)
		}
		pts := make([]cdb.Vector, 0, *samples)
		for i := 0; i < *samples; i++ {
			p, err := gen.Sample()
			if err != nil {
				log.Fatalf("sample %d: %v", i, err)
			}
			pts = append(pts, p)
			c.Point(p, 1.5, viz.Palette[3])
		}
		if *hull {
			hv := geom.Hull2D(pts)
			for i := range hv {
				c.Line(hv[i], hv[(i+1)%len(hv)], viz.Palette[2], 2)
			}
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if _, err := c.WriteTo(f); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}
