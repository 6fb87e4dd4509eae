// Command mallacc-bench regenerates every table and figure of the paper's
// evaluation (Figures 1, 2, 4, 6, 13-18 and Tables 1-2, plus the Section
// 6.4 area analysis) on the simulated system.
//
// Usage:
//
//	mallacc-bench                 # run everything
//	mallacc-bench -run fig13      # run one experiment
//	mallacc-bench -run fig13,fig14 -calls 100000
//	mallacc-bench -list           # list experiment IDs
//	mallacc-bench -o results/     # also write one report file per experiment
//	mallacc-bench -run fig13 -format json        # machine-readable output
//	mallacc-bench -run fig13 -metrics -format json  # + telemetry per run
//
// Reports go to stdout; timing and the run/failed exit summary go to
// stderr, so redirecting stdout captures clean report data in any format.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mallacc/internal/harness"
	"mallacc/internal/simsvc"
	"mallacc/internal/telemetry"
)

func main() {
	var (
		run      = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		calls    = flag.Int("calls", 60000, "allocator-call budget per simulation run")
		seeds    = flag.Int("seeds", 6, "seeds for the significance study (table2)")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		cores    = flag.Int("cores", 16, "max core count for the multi-core scaling sweep (scale)")
		out      = flag.String("o", "", "directory to write per-experiment reports")
		format   = flag.String("format", "text", "output format: text | json | csv")
		metrics  = flag.Bool("metrics", false, "attach each run's full telemetry snapshot to the reports")
		list     = flag.Bool("list", false, "list experiments and exit")
		workers  = flag.Int("workers", 0, "concurrent simulations, experiments and their cells alike (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache-dir", "", "on-disk result cache; repeated invocations reuse stored reports")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q (want text, json or csv)\n", *format)
		os.Exit(1)
	}
	if err := harness.ValidateRunBounds(*cores, *seed, *calls); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := harness.ValidateSeeds(*seeds); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var selected []harness.Experiment
	if *run == "" {
		selected = harness.Experiments()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", id)
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// The whole suite goes through an in-process simulation service: the
	// experiments run concurrently on the worker pool, an experiment's
	// single-core cells spread over whatever workers are idle, overlapping
	// grids (fig13/fig14 share every run) collapse in the run-level cache,
	// and a -cache-dir makes repeated invocations skip finished experiments
	// entirely.
	svc, err := simsvc.New(simsvc.Config{
		Workers:        *workers,
		QueueHighWater: len(selected) + simsvc.DefaultQueueHighWater,
		CacheDir:       *cacheDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ids := make([]string, len(selected))
	for i, e := range selected {
		st, err := svc.Submit(simsvc.JobSpec{
			Kind:       simsvc.KindExperiment,
			Experiment: e.ID,
			Calls:      *calls,
			Seeds:      *seeds,
			Seed:       *seed,
			Cores:      *cores,
			Metrics:    *metrics,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: submit: %v\n", e.ID, err)
			os.Exit(1)
		}
		ids[i] = st.ID
	}

	var (
		ran, failed int
		start       = time.Now()
		reports     []*harness.Report // for the combined JSON document
	)
	for i, e := range selected {
		st, err := svc.Await(context.Background(), ids[i])
		if err == nil && st.State != simsvc.StateDone {
			err = fmt.Errorf("%s", st.Error)
		}
		var rep *harness.Report
		if err == nil {
			rep = new(harness.Report)
			err = json.Unmarshal(st.Report, rep)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s: FAILED after %.1fs: %v\n", e.ID, st.ElapsedSeconds, err)
			continue
		}
		ran++
		if st.Cached {
			fmt.Fprintf(os.Stderr, "%s: done (cached)\n", e.ID)
		} else {
			fmt.Fprintf(os.Stderr, "%s: done in %.1fs\n", e.ID, st.ElapsedSeconds)
		}

		switch *format {
		case "json":
			reports = append(reports, rep) // emitted as one document below
		case "csv":
			b, err := rep.CSV()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			os.Stdout.Write(b)
			fmt.Println()
		default:
			fmt.Println(rep.String())
			if *metrics {
				printMetricsText(rep)
			}
		}
		if *out != "" {
			b, err := rep.Render(*format)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*out, e.ID+formatExt(*format))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if *format == "json" {
		doc := map[string]any{
			"tool":        "mallacc-bench",
			"seed":        *seed,
			"calls":       *calls,
			"seeds":       *seeds,
			"cores":       *cores,
			"experiments": reports,
		}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Stdout.Write(append(b, '\n'))
	}
	fmt.Fprintf(os.Stderr, "%d experiments run, %d failed in %.1fs\n", ran, failed, time.Since(start).Seconds())
	if failed > 0 {
		os.Exit(1)
	}
}

func formatExt(format string) string {
	switch format {
	case "json":
		return ".json"
	case "csv":
		return ".csv"
	default:
		return ".txt"
	}
}

// printMetricsText dumps each attached run snapshot as name/value lines.
func printMetricsText(rep *harness.Report) {
	for _, run := range rep.Runs {
		fmt.Printf("-- metrics: %s --\n", run.Name)
		for _, m := range run.Metrics.Metrics {
			if m.Kind == telemetry.KindHistogram {
				fmt.Printf("%-32s count=%d sum=%d mean=%.1f p50=%.1f p99=%.1f\n",
					m.Name, m.Count, m.Sum, m.Mean, m.P50, m.P99)
			} else {
				fmt.Printf("%-32s %g\n", m.Name, m.Value)
			}
		}
		fmt.Println()
	}
}
