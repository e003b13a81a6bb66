// Command jsdetect classifies JavaScript files with the two-level detector:
// level 1 reports regular vs minified vs obfuscated; level 2 names the
// transformation techniques of transformed files (top-k with the paper's
// 10% confidence floor).
//
// Usage:
//
//	jsdetect -models models/ file.js dir/ ...   # files and directories
//	cat file.js | jsdetect -models models/
//	jsdetect -models models/ -html page.html    # classify inline scripts
//	jsdetect -models models/ -json file.js      # machine-readable output
//	jsdetect -models models/ -explain file.js   # attach static indicators
//	jsdetect -models models/ -workers 8 dir/    # parallel batch scan
//	jsdetect -models models/ -dedup dir/        # classify duplicate files once
//	jsdetect -models models/ -triage dir/       # stage-0 cascade: easy files skip the pipeline
//	jsdetect -models models/ -store cache/ dir/ # persist verdicts across invocations
//	jsdetect -models models/ -metrics dir/      # per-stage metrics dump
//	jsdetect -models models/ -pprof :6060 dir/  # live pprof endpoints
//	jsdetect -models models/ -trace out.tr dir/ # runtime execution trace
//
// Directory scans run on the batch engine: every file is parsed once, the
// parse is shared across both detectors and the -explain rules, and a worker
// pool (-workers) provides the parallelism. Results stream in input order.
// A file that fails to parse is reported and skipped; only I/O-level
// failures (unreadable files, bad flags, missing models) make the exit code
// non-zero.
//
// Observability: -metrics enables the internal/obs registry for the run and
// prints the per-stage pipeline breakdown (parse, flow, rules, features,
// inference — durations summed across workers) plus every pipeline counter
// and histogram to stderr; with -json the metrics dump is a single JSON
// object on stderr instead. -pprof serves net/http/pprof on the given
// address for the lifetime of the scan, and -trace writes a runtime/trace
// of the scan for `go tool trace`.
//
// Models come from the trainer command; model files embed the feature
// configuration they were trained with, and loading fails loudly when -dims
// does not match.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime/trace"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/htmlext"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options bundles the CLI configuration.
type options struct {
	topK      int
	threshold float64
	html      bool
	jsonOut   bool
	explain   bool
	workers   int
	dedup     bool
	triage    bool
	storeDir  string
	stats     bool
	metrics   bool
	pprofAddr string
	traceFile string
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("jsdetect", flag.ContinueOnError)
	flags.SetOutput(stderr)
	models := flags.String("models", "models", "directory containing level1.model and level2.model")
	dims := flags.Int("dims", 1024, "hashed 4-gram dimensions (must match training)")
	opts := options{}
	flags.IntVar(&opts.topK, "k", 4, "maximum number of techniques to report")
	flags.Float64Var(&opts.threshold, "threshold", core.DefaultThreshold, "confidence floor for technique reporting")
	flags.BoolVar(&opts.html, "html", false, "treat inputs as HTML and classify the extracted inline scripts")
	flags.BoolVar(&opts.jsonOut, "json", false, "emit one JSON object per input")
	flags.BoolVar(&opts.explain, "explain", false, "run the static indicator rules and attach attributable diagnostics")
	flags.IntVar(&opts.workers, "workers", 0, "batch scan worker pool size (0 = GOMAXPROCS)")
	flags.BoolVar(&opts.dedup, "dedup", false, "cache verdicts by content hash so duplicate files are classified once")
	flags.BoolVar(&opts.triage, "triage", false, "route high-confidence regular/minified files around the full pipeline")
	flags.StringVar(&opts.storeDir, "store", "", "persist verdicts to this directory so repeat scans answer from disk")
	flags.BoolVar(&opts.stats, "stats", false, "print aggregate scan statistics to stderr")
	flags.BoolVar(&opts.metrics, "metrics", false, "collect pipeline metrics and print the per-stage breakdown to stderr (JSON with -json)")
	flags.StringVar(&opts.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the scan's lifetime")
	flags.StringVar(&opts.traceFile, "trace", "", "write a runtime/trace of the scan to this file")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	// Observability hooks come up before the models load so profiling covers
	// model loading too.
	if opts.metrics {
		// A fresh registry per run keeps repeated in-process invocations
		// (tests) from bleeding counts into each other.
		prev := obs.Swap(obs.NewRegistry())
		defer obs.Swap(prev)
	}
	if opts.pprofAddr != "" {
		ln, err := net.Listen("tcp", opts.pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "jsdetect: -pprof: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "jsdetect: pprof listening on http://%s/debug/pprof/\n", ln.Addr())
		// The shared shutdown helper ties the server goroutine to a tracked
		// drain: stop closes the listener (unblocking Serve) and waits for
		// the goroutine, so it never outlives the run (goroutine-hygiene's
		// contract for every go statement). jsscand -pprof uses the same
		// helper.
		stop := service.StartHTTP(ln, nil)
		defer stop()
	}
	if opts.traceFile != "" {
		f, err := os.Create(opts.traceFile)
		if err != nil {
			fmt.Fprintf(stderr, "jsdetect: -trace: %v\n", err)
			return 1
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "jsdetect: -trace: %v\n", err)
			return 1
		}
		defer func() {
			trace.Stop()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "jsdetect: -trace: %v\n", err)
			}
		}()
	}

	featOpts := features.Options{NGramDims: *dims}
	l1, err := core.LoadLevelFile(filepath.Join(*models, "level1.model"), featOpts, core.Level1Labels)
	if err != nil {
		fmt.Fprintf(stderr, "jsdetect: load level 1: %v\n", err)
		return 1
	}
	l2, err := core.LoadLevelFile(filepath.Join(*models, "level2.model"), featOpts, core.Level2Labels())
	if err != nil {
		fmt.Fprintf(stderr, "jsdetect: load level 2: %v\n", err)
		return 1
	}
	scanOpts := core.ScanOptions{Workers: opts.workers, Explain: opts.explain, Dedup: opts.dedup, Triage: opts.triage}
	if opts.storeDir != "" {
		vs, err := store.Open(opts.storeDir)
		if err != nil {
			fmt.Fprintf(stderr, "jsdetect: -store: %v\n", err)
			return 1
		}
		defer func() {
			if err := vs.Close(); err != nil {
				fmt.Fprintf(stderr, "jsdetect: close store: %v\n", err)
			}
		}()
		scanOpts.VerdictStore = vs
	}
	scanner, err := core.NewScanner(l1, l2, scanOpts)
	if err != nil {
		fmt.Fprintf(stderr, "jsdetect: %v\n", err)
		return 1
	}

	paths, err := expandPaths(flags.Args(), opts.html)
	if err != nil {
		fmt.Fprintf(stderr, "jsdetect: %v\n", err)
		return 1
	}

	// Read stage. An unreadable file is an I/O-level failure: it sets the
	// exit code but the rest of the batch still runs.
	exit := 0
	items := make([]item, len(paths))
	for i, path := range paths {
		items[i] = readItem(path, opts.html)
		if items[i].readErr != nil {
			exit = 1
		}
	}

	// Scan stage: only readable, non-empty inputs go through the engine.
	var inputs []core.Input
	var itemOf []int
	for j := range items {
		if items[j].readErr != nil || items[j].skip {
			continue
		}
		inputs = append(inputs, core.Input{Path: items[j].path, Source: items[j].source})
		itemOf = append(itemOf, j)
	}

	// Results stream back in input order; skipped and unreadable items are
	// flushed at their original positions so output order always matches
	// argument order.
	next := 0
	flushTo := func(j int) {
		for ; next < j; next++ {
			emitItem(items[next], opts, stdout, stderr)
		}
	}
	stats := scanner.ScanStream(inputs, func(i int, r core.FileResult) {
		j := itemOf[i]
		flushTo(j)
		next = j + 1
		emitResult(items[j], r, opts, stdout, stderr)
	})
	flushTo(len(items))

	if opts.stats {
		dedup := ""
		if opts.dedup {
			dedup = fmt.Sprintf(", %d deduped", stats.Deduped)
		}
		if opts.triage {
			dedup += fmt.Sprintf(", %d bypassed", stats.Bypassed)
		}
		if opts.storeDir != "" {
			dedup += fmt.Sprintf(", %d from store", stats.StoreHits)
		}
		fmt.Fprintf(stderr,
			"jsdetect: scanned %d files (%d bytes) in %v: %d regular, %d minified, %d obfuscated, %d transformed, %d parse failures%s (%.1f files/s, %.1f KB/s)\n",
			stats.Files, stats.Bytes, stats.Duration.Round(1e6),
			stats.Regular, stats.Minified, stats.Obfuscated, stats.Transformed,
			stats.ParseFailures, dedup, stats.FilesPerSec(), stats.BytesPerSec()/1024)
	}
	if opts.metrics {
		emitMetrics(stderr, stats, opts.jsonOut)
	}
	return exit
}

// metricsReport is the -metrics -json output shape.
type metricsReport struct {
	Stages     []core.StageStats `json:"stages"`
	StageTotal int64             `json:"stageTotalNs"`
	ScanWall   int64             `json:"scanWallNs"`
	Metrics    obs.Snapshot      `json:"metrics"`
}

// emitMetrics dumps the per-stage breakdown and the obs registry snapshot to
// w: aligned text by default, one JSON object under -json.
func emitMetrics(w io.Writer, stats core.ScanStats, jsonOut bool) {
	snap := obs.Snapshot{}
	if reg := obs.Get(); reg != nil {
		snap = reg.Snapshot()
	}
	if jsonOut {
		json.NewEncoder(w).Encode(metricsReport{
			Stages:     stats.Stages,
			StageTotal: int64(stats.StageTotal()),
			ScanWall:   int64(stats.Duration),
			Metrics:    snap,
		})
		return
	}
	fmt.Fprintf(w, "jsdetect: pipeline stage breakdown (durations summed across workers):\n")
	fmt.Fprintf(w, "  %-10s %8s %12s %14s %10s\n", "stage", "files", "bytes", "time", "% stages")
	total := stats.StageTotal()
	for _, st := range stats.Stages {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(st.Duration) / float64(total)
		}
		fmt.Fprintf(w, "  %-10s %8d %12d %14s %9.1f%%\n", st.Stage, st.Files, st.Bytes, st.Duration.Round(1e3), pct)
	}
	fmt.Fprintf(w, "  stages total %v, scan wall %v\n", total.Round(1e3), stats.Duration.Round(1e3))
	snap.WriteText(w)
}

// item is one CLI argument after the read/HTML-extract stage.
type item struct {
	path   string
	source string
	// htmlScripts is the number of inline scripts extracted under -html.
	htmlScripts int
	// skip marks an HTML input with no inline scripts: reported, not scanned.
	skip    bool
	readErr error
}

// readItem loads one path ("-" reads stdin) and, under -html, extracts its
// inline scripts.
func readItem(path string, html bool) item {
	it := item{path: path}
	var src []byte
	var err error
	if path == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(path)
	}
	if err != nil {
		it.readErr = err
		return it
	}
	it.source = string(src)
	if html {
		scripts := htmlext.Extract(it.source)
		joined := htmlext.JoinInline(scripts)
		if strings.TrimSpace(joined) == "" {
			it.skip = true
			return it
		}
		it.htmlScripts = len(scripts)
		it.source = joined
	}
	return it
}

// emitItem reports an item that never reached the scanner (read error or
// scriptless HTML) at its position in the output stream.
func emitItem(it item, opts options, stdout, stderr io.Writer) {
	if it.readErr != nil {
		fmt.Fprintf(stderr, "jsdetect: %s: %v\n", it.path, it.readErr)
		if opts.jsonOut {
			json.NewEncoder(stdout).Encode(report{Path: it.path, Error: it.readErr.Error()})
		}
		return
	}
	if opts.jsonOut {
		json.NewEncoder(stdout).Encode(report{Path: it.path})
		return
	}
	fmt.Fprintf(stdout, "%s: no inline scripts\n", it.path)
}

// emitResult reports one scanned file. Parse failures are per-file: they go
// to stderr (and the JSON error field) without failing the run.
func emitResult(it item, r core.FileResult, opts options, stdout, stderr io.Writer) {
	if r.Err != nil {
		fmt.Fprintf(stderr, "jsdetect: %s: %v\n", it.path, r.Err)
		if opts.jsonOut {
			json.NewEncoder(stdout).Encode(report{Path: it.path, Error: r.Err.Error()})
		}
		return
	}
	rep := buildReport(it.path, r.Level1, r.Level2, r.Diagnostics, opts)
	rep.HTMLScripts = it.htmlScripts
	rep.Bypassed = r.Bypassed
	if opts.jsonOut {
		json.NewEncoder(stdout).Encode(rep)
		return
	}
	renderText(stdout, rep)
}

// expandPaths walks directory arguments into their .js files (.html/.htm
// under -html); "-" and plain files pass through. WalkDir visits entries in
// lexical order, so expansion is deterministic.
func expandPaths(args []string, html bool) ([]string, error) {
	if len(args) == 0 {
		return []string{"-"}, nil
	}
	exts := []string{".js"}
	if html {
		exts = []string{".html", ".htm"}
	}
	var out []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if arg == "-" || err != nil || !info.IsDir() {
			out = append(out, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				return nil
			}
			name := strings.ToLower(d.Name())
			for _, ext := range exts {
				if strings.HasSuffix(name, ext) {
					out = append(out, path)
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// report is the JSON output shape.
type report struct {
	Path        string            `json:"path"`
	Transformed bool              `json:"transformed"`
	Regular     float64           `json:"regular"`
	Minified    float64           `json:"minified"`
	Obfuscated  float64           `json:"obfuscated"`
	Techniques  []techniqueReport `json:"techniques,omitempty"`
	HTMLScripts int               `json:"htmlScripts,omitempty"`
	// Bypassed marks a verdict the stage-0 triage router synthesized
	// without running the full pipeline (-triage).
	Bypassed bool `json:"bypassed,omitempty"`
	// Diagnostics carries the static indicator findings under -explain.
	Diagnostics []analysis.Diagnostic `json:"diagnostics,omitempty"`
	// Error is the per-file failure (parse or read error), when any.
	Error string `json:"error,omitempty"`
}

type techniqueReport struct {
	Technique   string  `json:"technique"`
	Probability float64 `json:"probability"`
	// Supported marks techniques that at least one static indicator
	// diagnostic attributes (only set under -explain).
	Supported bool `json:"supported,omitempty"`
}

// buildReport assembles the output report from the classifier results and
// the optional static indicator diagnostics. Pure so tests can drive it with
// fixed probabilities.
func buildReport(path string, l1 core.Level1Result, l2 *core.Level2Result, diags []analysis.Diagnostic, opts options) report {
	rep := report{
		Path:        path,
		Transformed: l1.IsTransformed(),
		Regular:     l1.Regular,
		Minified:    l1.Minified,
		Obfuscated:  l1.Obfuscated,
		Diagnostics: diags,
	}
	supported := make(map[string]bool)
	for _, d := range diags {
		if d.Technique != "" {
			supported[d.Technique] = true
		}
	}
	if l2 != nil {
		for _, p := range l2.TopK(opts.topK, opts.threshold) {
			rep.Techniques = append(rep.Techniques, techniqueReport{
				Technique:   p.Technique.String(),
				Probability: p.Probability,
				Supported:   supported[p.Technique.String()],
			})
		}
	}
	return rep
}

// renderText prints the human-readable form of a report.
func renderText(w io.Writer, rep report) {
	verdict := "regular"
	if rep.Transformed {
		verdict = "transformed"
	}
	fmt.Fprintf(w, "%s: %s (regular %.2f, minified %.2f, obfuscated %.2f)\n",
		rep.Path, verdict, rep.Regular, rep.Minified, rep.Obfuscated)
	for _, t := range rep.Techniques {
		mark := ""
		if t.Supported {
			mark = "  [supported by indicators]"
		}
		fmt.Fprintf(w, "  %-26s %.2f%s\n", t.Technique, t.Probability, mark)
	}
	if len(rep.Diagnostics) > 0 {
		fmt.Fprintf(w, "  indicators:\n")
		for _, d := range rep.Diagnostics {
			fmt.Fprintf(w, "    %s\n", formatDiagnostic(d))
			if len(d.Evidence) > 0 {
				fmt.Fprintf(w, "        evidence: %s\n", formatEvidence(d.Evidence))
			}
		}
	}
}

// formatDiagnostic renders one diagnostic as a single line.
func formatDiagnostic(d analysis.Diagnostic) string {
	attr := ""
	if d.Technique != "" {
		attr = " -> " + d.Technique
	}
	return fmt.Sprintf("[%s] %s%s @%d:%d-%d:%d: %s",
		d.Severity, d.Rule, attr,
		d.Span.Start.Line, d.Span.Start.Column+1,
		d.Span.End.Line, d.Span.End.Column+1,
		d.Message)
}

// formatEvidence renders the evidence map with deterministic key order.
func formatEvidence(ev map[string]float64) string {
	keys := make([]string, 0, len(ev))
	for k := range ev {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%g", k, ev[k]))
	}
	return strings.Join(parts, " ")
}
