package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// layerSpans are the spans whose self time is a layer's; "file", "hash"
// and "cache" are the scanner's own bookkeeping and fall into
// scanner.other_ms.
var layerSpans = []string{"parser", "flow", "analysis", "features", "ml", "triage", "store.get", "store.put"}

// Traced is the per-layer split of one workload.
type Traced struct {
	Metrics    []Metric
	Mismatches int
	Attempted  int
	Failed     int
	Notes      []string
	SpansPath  string
}

// runTraced measures the per-layer split. It runs the workload once through
// the real entry point with the obs registry on (counts, GC, service
// split); then, with the registry off, a one-worker Scanner, a traced
// replay and an untraced replay interleaved request by request (the wall
// time the layers must account for, layer self times, tracing overhead);
// and a standalone lexer pass. Every replay verdict must equal the
// one-worker Scanner's, bit for bit.
func runTraced(cfg *Config, w *Workload, sys *System, seed int64, dir string) (*Traced, error) {
	out := &Traced{}
	reg := obs.NewRegistry()
	obs.Swap(reg)
	runtime.GC()
	gc0 := readGC()
	var reqs [][]Item
	var svc *serviceSplit
	if w.Name == "crawl" {
		var recs []Record
		reqs, recs = crawlTracePass(cfg, w, sys, seed)
		svc = splitService(recs, reg)
		for _, r := range recs {
			out.Attempted++
			if r.Failed {
				out.Failed++
			}
		}
	} else {
		reqs = w.Requests
		out.Attempted, out.Failed = batchPass(w, sys, clientsFor(cfg, w.Name))
	}
	gc := readGC().sub(gc0)
	obs.Swap(nil)
	snap := reg.Snapshot()
	counter := func(name string) float64 {
		for _, c := range snap.Counters {
			if c.Name == name {
				return float64(c.Value)
			}
		}
		return 0
	}

	var seq []Item
	for _, req := range reqs {
		seq = append(seq, req...)
	}
	files := float64(len(seq))

	// The one-worker Scanner: same options, fresh cache and store.
	opts := sys.Opts
	opts.Workers = 1
	if opts.VerdictStore != nil {
		st, err := store.Open(filepath.Join(dir, "ref-store"))
		if err != nil {
			return nil, err
		}
		defer st.Close()
		opts.VerdictStore = st
	}
	one, err := core.NewScanner(sys.L1, sys.L2, opts)
	if err != nil {
		return nil, err
	}
	rp, err := newReplayer(sys, newTracer(true), filepath.Join(dir, "replay-traced"))
	if err != nil {
		return nil, err
	}
	defer rp.close()
	plain, err := newReplayer(sys, newTracer(false), filepath.Join(dir, "replay-plain"))
	if err != nil {
		return nil, err
	}
	defer plain.close()

	// Request by request, the one-worker Scanner, the traced replay and the
	// untraced replay each process the same inputs, in an order that
	// rotates so none is always first to touch them. Interleaving at this
	// grain exposes the three to the same host conditions, so their wall
	// times compare: the Scanner's is what the layers must account for,
	// and the two replays' give the tracing overhead.
	ref := make([]core.FileResult, len(seq))
	got := make([]core.FileResult, len(seq))
	var oneWall, tracedWall, plainWall time.Duration
	runtime.GC()
	at := 0
	for k, req := range reqs {
		in := inputsOf(w, req)
		for step := 0; step < 3; step++ {
			t0 := time.Now()
			switch (k + step) % 3 {
			case 0:
				res, _ := one.ScanBatch(in)
				copy(ref[at:], res)
				oneWall += time.Since(t0)
			case 1:
				for j := range in {
					got[at+j] = rp.file(at+j, in[j].Source)
				}
				tracedWall += time.Since(t0)
			case 2:
				for j := range in {
					plain.file(at+j, in[j].Source)
				}
				plainWall += time.Since(t0)
			}
		}
		at += len(in)
	}
	for j := range got {
		if keyOfResult(&got[j]) != keyOfResult(&ref[j]) {
			out.Mismatches++
		}
	}

	distinct := map[Item]bool{}
	var srcs []string
	for _, it := range seq {
		if !distinct[it] {
			distinct[it] = true
			srcs = append(srcs, w.Source(it))
		}
	}
	lex := lexAll(srcs)
	if lex.Errors > 0 {
		out.Notes = append(out.Notes, fmt.Sprintf("standalone lexer failed on %d of %d inputs", lex.Errors, len(srcs)))
	}

	self := selfTimes(rp.tr.Spans)
	perFile := func(d time.Duration) float64 { return float64(d) / 1e6 / files }
	var layerSum time.Duration
	for _, name := range layerSpans {
		layerSum += self[name]
	}
	mbps := func(bytes int64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(bytes) / (1 << 20) / d.Seconds()
	}
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	perOp := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / 1e6 / float64(n)
	}
	m := []Metric{
		{"parser.self_ms", perFile(self["parser"]), "ms"},
		{"parser.mb_per_s", mbps(rp.parseBytes, self["parser"]), "MB/s"},
		{"parser.alloc_mb", float64(rp.parseAlloc) / (1 << 20) / files, "MB"},
		{"parser.nodes", float64(rp.nodes) / files, "count"},
		{"lexer.mb_per_s", mbps(lex.Bytes, lex.Dur), "MB/s"},
		{"lexer.tokens", float64(lex.Tokens) / float64(len(srcs)), "count"},
		{"flow.self_ms", perFile(self["flow"]), "ms"},
		{"flow.edges", (counter("flow.control_edges") + counter("flow.data_edges")) / files, "count"},
		{"flow.timeouts", counter("flow.dataflow_timeouts"), "count"},
		{"analysis.self_ms", perFile(self["analysis"]), "ms"},
		{"analysis.diagnostics", counter("analysis.diagnostics") / files, "count"},
		{"features.self_ms", perFile(self["features"]), "ms"},
		{"features.alloc_mb", float64(rp.featAlloc) / (1 << 20) / files, "MB"},
		{"ml.self_ms", perFile(self["ml"]), "ms"},
		{"ml.tree_evals", counter("ml.tree_evals") / files, "count"},
		{"triage.self_ms", perFile(self["triage"]), "ms"},
		{"triage.bypass_ratio", ratio(counter("scan.triage.bypass"), counter("scan.triage.escalate")), "ratio"},
		{"cache.hit_ratio", ratio(counter("scan.cache.hit"), counter("scan.cache.miss")), "ratio"},
		{"cache.evictions", counter("scan.cache.evict"), "count"},
		{"store.get_ms", perOp(self["store.get"], rp.gets), "ms"},
		{"store.put_ms", perOp(self["store.put"], rp.puts), "ms"},
		{"store.hit_ratio", ratio(counter("scan.store.hit"), counter("scan.store.miss")), "ratio"},
		{"store.log_mb", storeLogMB(sys), "MB"},
		{"service.queue_wait_p99_ms", svc.get().queueWaitP99, "ms"},
		{"service.overhead_p50_ms", svc.get().overheadP50, "ms"},
		{"service.scan_p50_ms", svc.get().scanP50, "ms"},
		{"service.rejects", counter("service.rejects"), "count"},
		{"scanner.other_ms", perFile(oneWall - layerSum), "ms"},
		{"gc.pause_ms", gc.PauseMs, "ms"},
		{"gc.cycles", float64(gc.Cycles), "count"},
		{"generator.late_p99_ms", svc.get().lateP99, "ms"},
		{"trace.overhead_share", (tracedWall.Seconds() - plainWall.Seconds()) / plainWall.Seconds(), "ratio"},
	}
	out.Metrics = m
	out.Notes = append(out.Notes,
		fmt.Sprintf("accounting: one-worker Scanner wall %.3f ms/file = layer self %.3f + scanner.other %.3f; replay wall traced %.3f, untraced %.3f ms/file",
			perFile(oneWall), perFile(layerSum), perFile(oneWall-layerSum), perFile(tracedWall), perFile(plainWall)),
		fmt.Sprintf("replay: %d files, %d spans, self ms/file: %s", len(seq), len(rp.tr.Spans), formatSelf(self, files)))
	if rp.store != nil {
		out.Notes = append(out.Notes, fmt.Sprintf("replay store: %d gets, %d puts", rp.gets, rp.puts))
	}
	out.SpansPath = filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-%d.jsonl", w.Name, seed))
	if err := writeSpans(out.SpansPath, rp.tr.Spans); err != nil {
		return nil, err
	}
	return out, nil
}

func formatSelf(self map[string]time.Duration, files float64) string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, n := range names {
		s += fmt.Sprintf("%s=%.4f ", n, float64(self[n])/1e6/files)
	}
	return s
}

func clientsFor(cfg *Config, workload string) int {
	if workload == "malware" {
		return cfg.Malware.Clients
	}
	return cfg.Bundles.Clients
}

// batchPass scans every request of a batch workload once through
// ScanBatch with the workload's client count.
func batchPass(w *Workload, sys *System, clients int) (attempted, failed int) {
	recs := fixedLoop(clients, len(w.Requests), func(k int) (int64, int, bool) {
		res, stats := sys.Scanner.ScanBatch(inputsOf(w, w.Requests[k]))
		bad := len(res) != len(w.Requests[k])
		for j := range res {
			if res[j].Err != nil {
				bad = true
			}
		}
		return int64(stats.Duration), len(res), bad
	})
	for _, r := range recs {
		if r.Failed {
			failed++
		}
	}
	return len(recs), failed
}

// traceRequests is about how many crawl requests the traced run sends.
const traceRequests = 1000

// crawlTracePass sends about traceRequests requests from the start of the
// stream at the nominal rate and returns them with their records.
func crawlTracePass(cfg *Config, w *Workload, sys *System, seed int64) ([][]Item, []Record) {
	c := cfg.Crawl
	conns := runtime.NumCPU()
	cl := newCrawlClient(w, sys.URL, conns)
	defer cl.http.CloseIdleConnections()
	span := time.Duration(traceRequests / c.NominalRPS * float64(time.Second))
	sched := poissonSchedule(rngFor(seed, "crawl/arrivals/nominal"), c.NominalRPS, span)
	recs := openLoop(sched, conns, cl.do)
	reqs := make([][]Item, len(sched))
	for k := range reqs {
		reqs[k] = cl.stream.Get(k)
	}
	return reqs, recs
}

// serviceSplit divides client-side request latency into the daemon's queue
// wait, its scan time (the response's stats.durationNs) and the rest
// (HTTP, JSON, scheduling).
type serviceSplit struct {
	queueWaitP99, overheadP50, scanP50, lateP99 float64
}

// get returns the split, or zeros for batch workloads, which have no
// service and no generator.
func (s *serviceSplit) get() serviceSplit {
	if s == nil {
		return serviceSplit{}
	}
	return *s
}

func splitService(recs []Record, reg *obs.Registry) *serviceSplit {
	var wait obs.HistogramSnapshot
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "service.queue.wait" {
			wait = h
		}
	}
	outside := make([]float64, 0, len(recs))
	scan := make([]float64, 0, len(recs))
	late := make([]float64, 0, len(recs))
	for _, r := range recs {
		outside = append(outside, float64(r.Done-r.Sent-time.Duration(r.ScanNs))/1e6)
		scan = append(scan, float64(r.ScanNs)/1e6)
		late = append(late, r.LateMs())
	}
	return &serviceSplit{
		queueWaitP99: float64(wait.Quantile(0.99)) / 1e6,
		overheadP50:  median(outside) - float64(wait.Quantile(0.5))/1e6,
		scanP50:      median(scan),
		lateP99:      summarize(late).P99,
	}
}

func storeLogMB(sys *System) float64 {
	if sys.Store == nil {
		return 0
	}
	return float64(sys.Store.Stats().LogBytes) / (1 << 20)
}
