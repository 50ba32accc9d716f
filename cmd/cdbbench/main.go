// Command cdbbench runs the reproduction experiment suite E1–E12 (each
// runE* in internal/experiments names the paper claim it measures) and
// prints the measured tables. With -markdown it emits the tables in the
// format EXPERIMENTS.md records.
//
// Usage:
//
//	cdbbench                 # every experiment, full size
//	cdbbench -run E7,E9      # selected experiments
//	cdbbench -quick          # reduced workloads
//	cdbbench -markdown       # markdown tables
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cdbbench: ")
	var (
		run      = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		quick    = flag.Bool("quick", false, "reduced workloads")
		seed     = flag.Uint64("seed", 2006, "random seed")
		markdown = flag.Bool("markdown", false, "emit markdown tables")
	)
	flag.Parse()
	ids := experiments.IDs()
	if *run != "" {
		ids = strings.Split(*run, ",")
	}
	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	failed := 0
	for _, id := range ids {
		tab, err := experiments.Run(strings.TrimSpace(id), cfg)
		if err != nil {
			log.Printf("%s: %v", id, err)
			failed++
			continue
		}
		if *markdown {
			tab.Markdown(os.Stdout)
		} else {
			tab.Render(os.Stdout)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "cdbbench: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}
