// Command perfbench is the repository's end-to-end benchmark. It generates
// one seeded workload from internal/corpus, trains both detectors, and runs
// the workload through the real entry points: core.Scanner.ScanBatch for the
// batch workloads and service.Server's HTTP handler on a loopback listener
// for the crawl. See README.md beside this file.
//
// Usage:
//
//	perfbench --workload crawl|malware|bundles --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer split. The exit code is non-zero when a
// correctness check fails or the run cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Metric is one named measurement with its unit.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Result is the final JSON line.
type Result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
	order     []string
}

// endToEnd and perLayer are the metric names a timed and a traced run
// put in the JSON line, in order; BENCHMARK.json lists the same names.
var (
	endToEnd = []string{"files_per_s", "cpu_ms_per_file", "latency_p50_ms", "setup_s",
		"peak_heap_mb", "l1_accuracy", "l2_f1"}
	perLayer = []string{
		"parser.self_ms", "parser.mb_per_s", "parser.alloc_mb", "parser.nodes",
		"lexer.mb_per_s", "lexer.tokens",
		"flow.self_ms", "flow.edges", "flow.timeouts",
		"analysis.self_ms", "analysis.diagnostics",
		"features.self_ms", "features.alloc_mb",
		"ml.self_ms", "ml.tree_evals",
		"triage.self_ms", "triage.bypass_ratio",
		"cache.hit_ratio", "cache.evictions",
		"store.get_ms", "store.put_ms", "store.hit_ratio", "store.log_mb",
		"service.queue_wait_p99_ms", "service.overhead_p50_ms", "service.scan_p50_ms", "service.rejects",
		"scanner.other_ms", "gc.pause_ms", "gc.cycles",
		"generator.late_p99_ms", "trace.overhead_share",
	}
)

// setupRepeats is how many times a timed run sets up; setup_s is the median.
const setupRepeats = 3

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "crawl, malware or bundles")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 10, "measured seconds of a timed run")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer split instead of the timed run")
	workdir := fl.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for models, stores and spans")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	runDir := filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d go=%s\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.Version())

	// Set-up runs setupRepeats times; the median is setup_s and the last
	// system is the one measured.
	var setups []float64
	var w *Workload
	var sys *System
	repeats := setupRepeats
	if *trace == 1 {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if sys != nil {
			sys.Close()
		}
		var d time.Duration
		w, sys, d, err = Setup(cfg, *workload, *seed, filepath.Join(runDir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		setups = append(setups, d.Seconds())
	}
	defer sys.Close()
	fmt.Printf("# inputs digest=%s model=%s files=%d setup_s=%v\n", w.Digest(), sys.ModelDigest, len(w.Files), setups)

	res := &Result{Metrics: map[string]map[string]any{}}
	var notes []string
	// report holds figures printed for people but kept out of the JSON
	// line: they are too noisy on a shared host to gate a change (see
	// README.md), or they are normally 0.
	var report []Metric
	correct := true
	if *trace == 1 {
		tr, err := runTraced(cfg, w, sys, *seed, runDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced run:", err)
			return 1
		}
		for _, m := range tr.Metrics {
			res.add(m)
		}
		res.Attempted, res.Failed = tr.Attempted, tr.Failed
		notes = append(notes, tr.Notes...)
		notes = append(notes, "spans written to "+tr.SpansPath)
		if tr.Mismatches > 0 {
			correct = false
			notes = append(notes, fmt.Sprintf("CHECK FAILED: %d replay verdicts differ from the Scanner's", tr.Mismatches))
		}
	} else {
		d := time.Duration(*seconds) * time.Second
		var o Outcome
		switch *workload {
		case "crawl":
			o = runCrawl(cfg, w, sys, *seed, d)
		case "malware":
			o = runBatch(w, sys, cfg.Malware.Clients, d)
		default:
			o = runBatch(w, sys, cfg.Bundles.Clients, d)
		}
		res.Attempted, res.Failed = o.Attempted, o.Failed
		res.add(Metric{"files_per_s", o.FilesPerS, "1/s"})
		res.add(Metric{"cpu_ms_per_file", o.CPUMsFile, "ms"})
		res.add(Metric{"latency_p50_ms", o.Latency.P50, "ms"})
		res.add(Metric{"setup_s", median(setups), "s"})
		res.add(Metric{"peak_heap_mb", o.PeakHeapMB, "MB"})
		res.add(Metric{"l1_accuracy", o.Quality.L1Accuracy(), "ratio"})
		res.add(Metric{"l2_f1", o.Quality.L2F1(), "ratio"})
		report = append(report, Metric{"latency_p99_ms", o.Latency.P99, "ms"})
		if o.Latency.TailP != 99 {
			report = append(report, Metric{fmt.Sprintf("latency_p%g_ms", o.Latency.TailP), o.Latency.TailMs, "ms"})
		}
		report = append(report,
			Metric{"latency_samples", float64(o.Latency.N), "count"},
			Metric{"failed_share", float64(o.Failed) / float64(max(o.Attempted, 1)), "ratio"})
		if *workload == "crawl" {
			report = append(report,
				Metric{"closed_files_per_s", o.ClosedFilesPerS, "1/s"},
				Metric{"max_rate_rps", o.MaxRateRPS, "1/s"},
				Metric{"generator.late_p99_ms", o.LateP99Ms, "ms"})
			notes = append(notes, "ladder "+strings.Join(o.ladderSteps, " "))
		}
		notes = append(notes, o.Notes...)
		notes = append(notes,
			fmt.Sprintf("quality over %d files: l1 %d correct; l2 tp=%d fp=%d fn=%d", o.Quality.Files, o.Quality.L1Correct, o.Quality.TP, o.Quality.FP, o.Quality.FN))
		if o.Mismatches > 0 {
			correct = false
			notes = append(notes, fmt.Sprintf("CHECK FAILED: %d verdicts differ from the reference verdict of the same file (crawl: a direct ScanBatch; batch workloads: the first pass)", o.Mismatches))
		}
		if floor, ok := cfg.AccuracyMin[*workload]; ok && o.Quality.L1Accuracy() < floor {
			correct = false
			notes = append(notes, fmt.Sprintf("CHECK FAILED: l1_accuracy %.4f below the floor %.4f", o.Quality.L1Accuracy(), floor))
		}
	}
	props, _ := json.Marshal(w.Describe())
	fmt.Printf("# properties %s\n", props)
	for _, n := range notes {
		fmt.Printf("# %s\n", n)
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	if strings.Join(res.order, ",") != strings.Join(want, ",") {
		fmt.Fprintf(os.Stderr, "perfbench: reported metrics %v, want %v\n", res.order, want)
		return 1
	}
	for _, name := range res.order {
		m := res.Metrics[name]
		fmt.Printf("%-28s %14.6g %s\n", name, m["value"], m["unit"])
	}
	for _, m := range report {
		fmt.Printf("%-28s %14.6g %s (report only)\n", m.Name, m.Value, m.Unit)
	}
	res.Correct = correct
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func (r *Result) add(m Metric) {
	r.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	r.order = append(r.order, m.Name)
}
