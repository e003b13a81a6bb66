package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// Outcome is what a timed run measured, before it is turned into metrics.
type Outcome struct {
	FilesPerS       float64
	CPUMsFile       float64
	Latency         Timing
	ClosedFilesPerS float64 // crawl only, report-only
	MaxRateRPS      float64
	PeakHeapMB      float64
	Quality         Quality
	Attempted       int
	Failed          int
	Mismatches      int
	LateP99Ms       float64
	Notes           []string
	ladderSteps     []string
}

// inputsOf renders a request's items as scanner inputs.
func inputsOf(w *Workload, req []Item) []core.Input {
	in := make([]core.Input, len(req))
	for j, it := range req {
		in[j] = core.Input{Path: w.Path(it), Source: w.Source(it)}
	}
	return in
}

// verdictBook remembers the first verdict seen for each item and counts any
// later verdict for the same item that differs from it.
type verdictBook struct {
	mu         sync.Mutex
	first      map[Item]verdictKey
	mismatches int
}

func newVerdictBook() *verdictBook { return &verdictBook{first: map[Item]verdictKey{}} }

// note records a verdict for item i and reports whether it is the first.
func (b *verdictBook) note(i Item, k verdictKey) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if old, ok := b.first[i]; ok {
		if old != k {
			b.mismatches++
		}
		return false
	}
	b.first[i] = k
	return true
}

// runBatch is the closed loop of the malware and bundles workloads: Clients
// callers each scan the next chunk with ScanBatch as soon as their previous
// call returns, in whole passes over the workload for d. A pass takes the
// chunks largest first, so the callers finish a pass together, and ends when
// its last call returns, so every pass does the same work; throughput and
// CPU per file are medians over the passes, which keeps a stall on the
// shared host from moving them. Every pass over a file must reproduce its
// first verdict bit for bit.
func runBatch(w *Workload, sys *System, clients int, d time.Duration) Outcome {
	inputs := make([][]core.Input, len(w.Requests))
	order := make([]int, len(w.Requests))
	size := make([]int, len(w.Requests))
	for k, req := range w.Requests {
		inputs[k] = inputsOf(w, req)
		order[k] = k
		for _, in := range inputs[k] {
			size[k] += len(in.Source)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return size[order[a]] > size[order[b]] })
	book := newVerdictBook()
	var qmu sync.Mutex
	var q Quality
	runtime.GC()
	heap := startHeapSampler(2 * time.Millisecond)
	passes, wall := passLoop(clients, d, len(inputs), func(k int) (int64, int, bool) {
		k = order[k]
		res, stats := sys.Scanner.ScanBatch(inputs[k])
		failed := len(res) != len(inputs[k])
		for j := range res {
			if res[j].Err != nil {
				failed = true
			}
			it := w.Requests[k][j]
			if book.note(it, keyOfResult(&res[j])) {
				qmu.Lock()
				q.add(w.Truth(it), &res[j])
				qmu.Unlock()
			}
		}
		return int64(stats.Duration), len(res), failed
	})
	var o Outcome
	var heapMax float64
	o.PeakHeapMB, heapMax = heap.Stop()
	var lat, rates, cpus []float64
	for _, p := range passes {
		rates = append(rates, float64(p.Files)/p.Wall.Seconds())
		cpus = append(cpus, float64(p.CPU)/1e6/float64(p.Files))
		for _, r := range p.Recs {
			o.Attempted++
			if r.Failed {
				o.Failed++
			}
			lat = append(lat, r.LatencyMs())
		}
	}
	o.Latency = summarize(lat)
	o.FilesPerS = median(rates)
	o.CPUMsFile = median(cpus)
	o.Quality = q
	o.Mismatches = book.mismatches
	o.Notes = append(o.Notes, fmt.Sprintf("closed loop: %d calls in %.2fs, %d complete passes; files/s per pass %s; CPU ms/file per pass %s; live heap max %.1f MB",
		o.Attempted, wall.Seconds(), len(passes), formatList(rates), formatList(cpus), heapMax))
	return o
}

// formatList renders values compactly for a report line.
func formatList(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}

// crawlClient posts crawl requests to the daemon as JSON batches and keeps
// the verdict fingerprint of every answer for the correctness check.
type crawlClient struct {
	url    string
	http   *http.Client
	w      *Workload
	stream *Stream
	book   *verdictBook
}

func newCrawlClient(w *Workload, url string, conns int) *crawlClient {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &crawlClient{
		url:    url,
		http:   &http.Client{Transport: tr, Timeout: 60 * time.Second},
		w:      w,
		stream: w.Stream(),
		book:   newVerdictBook(),
	}
}

// do sends stream request k. A failure is a transport error, any non-200
// status (429 included), a truncated batch, or a per-file error on a
// generated input.
func (c *crawlClient) do(k int) (int64, int, bool) {
	req := c.stream.Get(k)
	body := service.ScanRequest{Files: make([]service.ScanFile, len(req))}
	for j, it := range req {
		body.Files[j] = service.ScanFile{Path: c.w.Path(it), Source: c.w.Source(it)}
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, len(req), true
	}
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, len(req), true
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, len(req), true
	}
	var br service.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return 0, len(req), true
	}
	failed := br.Stats.Truncated || br.Error != "" || len(br.Results) != len(req)
	for j := range br.Results {
		if br.Results[j].Error != "" {
			failed = true
		}
		if j < len(req) {
			c.book.note(req[j], keyOfReport(&br.Results[j]))
		}
	}
	return br.Stats.DurationNs, len(req), failed
}

// The crawl's run shape: the untimed requests that warm the dedup cache and
// the store, the shares of --seconds taken by the nominal-rate phase, the
// untimed start of the closed loop, the timed closed loop and the rate
// ladder, and the requests in one closed-loop window.
const (
	warmupRequests = 3000
	nominalShare   = 0.35
	closedWarmup   = 0.08
	closedShare    = 0.42
	ladderShare    = 0.15
	closedWindow   = 500
)

// runCrawl drives the daemon through four phases sharing one request
// stream, with the obs registry on throughout, as jsscand keeps it. A fixed
// number of untimed requests warms the dedup cache and the store. Open-loop
// Poisson arrivals at the nominal rate give latency, the files answered per
// second and the heap. A closed loop over nproc connections gives CPU per
// file and the closed-loop throughput. A rate ladder, searched by bisection
// among the fixed steps, gives the highest step whose p99 meets the limit
// with no growing backlog. Afterwards every verdict served must equal a
// direct ScanBatch verdict of the same file, bit for bit.
func runCrawl(cfg *Config, w *Workload, sys *System, seed int64, d time.Duration) Outcome {
	c := cfg.Crawl
	obs.Enable()
	conns := runtime.NumCPU()
	cl := newCrawlClient(w, sys.URL, conns)
	defer cl.http.CloseIdleConnections()
	var o Outcome
	next := 0
	phase := func(name string, rate float64, span time.Duration) []Record {
		sched := poissonSchedule(rngFor(seed, "crawl/arrivals/"+name), rate, span)
		base := next
		next += len(sched)
		return openLoop(sched, conns, func(k int) (int64, int, bool) { return cl.do(base + k) })
	}
	count := func(recs []Record) {
		for _, r := range recs {
			o.Attempted++
			if r.Failed {
				o.Failed++
			}
		}
	}

	// Warm-up: a fixed number of requests fills the dedup cache and the
	// store with the popular libraries before anything is timed.
	count(fixedLoop(conns, warmupRequests, cl.do))
	next = warmupRequests

	runtime.GC()
	heap := startHeapSampler(2 * time.Millisecond)
	nominalDur := scaleDur(d, nominalShare)
	cpu0 := cpuTime()
	nominal := phase("nominal", c.NominalRPS, nominalDur)
	nominalCPU := cpuTime() - cpu0
	var heapMax float64
	o.PeakHeapMB, heapMax = heap.Stop()
	count(nominal)
	lat := make([]float64, len(nominal))
	late := make([]float64, len(nominal))
	files, end := 0, time.Duration(0)
	for i, r := range nominal {
		lat[i], late[i] = r.LatencyMs(), r.LateMs()
		files += r.Files
		end = max(end, r.Done)
	}
	o.Latency = summarize(lat)
	o.LateP99Ms = summarize(late).P99
	// The files answered per second at the nominal rate, up to the last
	// answer. It falls only if the daemon stops keeping up with the
	// schedule; the crawl's capacity figures, the closed-loop rate and
	// max_rate_rps, are report-only.
	if end > 0 {
		o.FilesPerS = float64(files) / end.Seconds()
	}
	o.Notes = append(o.Notes, fmt.Sprintf("nominal %.0f/s: %d requests, %d files; cpu ms/file %.4f; live heap max %.1f MB",
		c.NominalRPS, len(nominal), files, float64(nominalCPU)/1e6/float64(max(files, 1)), heapMax))

	time.Sleep(200 * time.Millisecond)
	// The closed loop starts untimed: on the 2-vCPU shared host, the first
	// seconds at saturation after the nominal rate ran slower than the rest
	// (the first third of the closed loop had the lowest median in seven of
	// ten runs).
	base := next
	warm, _, _ := closedLoop(conns, scaleDur(d, closedWarmup), closedWindow, func(k int) (int64, int, bool) { return cl.do(base + k) })
	next += len(warm)
	count(warm)
	base = next
	closed, cps, wall := closedLoop(conns, scaleDur(d, closedShare), closedWindow, func(k int) (int64, int, bool) { return cl.do(base + k) })
	next += len(closed)
	count(closed)
	rates, closedCPU := windowRates(cps)
	// CPU per file comes from the closed loop: with both cores busy it is
	// the work per file, while at the nominal rate it also carries the
	// cost of waking idle cores, which moves with the host's load.
	o.CPUMsFile = median(closedCPU)
	o.ClosedFilesPerS = median(rates)
	o.Notes = append(o.Notes, fmt.Sprintf("closed loop: %d requests in %.2fs over %d connections, cpu ms/file %.4f; files/s per %d-request window %s",
		len(closed), wall.Seconds(), conns, median(closedCPU), closedWindow, formatList(rates)))

	steps := c.RateStepsRPS
	visits := int(math.Ceil(math.Log2(float64(len(steps) + 1))))
	stepDur := scaleDur(d, ladderShare/float64(max(visits, 1)))
	lo, hi := -1, len(steps)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		time.Sleep(200 * time.Millisecond) // let the previous step drain
		recs := phase(fmt.Sprintf("step%d", mid), steps[mid], stepDur)
		count(recs)
		ok, why := stepPasses(recs, steps[mid], stepDur, c.LatencyLimitMs, conns)
		o.ladderSteps = append(o.ladderSteps, fmt.Sprintf("%.0f:%s", steps[mid], why))
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo >= 0 {
		o.MaxRateRPS = steps[lo]
	}
	obs.Disable()

	o.Quality, o.Mismatches = checkAgainstDirect(w, sys, cl.book)
	o.Mismatches += cl.book.mismatches
	return o
}

// stepPasses applies the ladder rule: no failed request, p99 latency (from
// the scheduled send) within the limit, and no growing backlog — at the end
// of the schedule no more requests outstanding than the limit's worth of
// arrivals plus one per connection.
func stepPasses(recs []Record, rate float64, span time.Duration, limitMs float64, conns int) (bool, string) {
	lat := make([]float64, len(recs))
	for i, r := range recs {
		if r.Failed {
			return false, "failures"
		}
		lat[i] = r.LatencyMs()
	}
	t := summarize(lat)
	backlog := backlogAt(recs, span)
	allowed := int(math.Ceil(rate*limitMs/1000)) + conns
	switch {
	case t.P99 > limitMs:
		return false, fmt.Sprintf("p99=%.1fms", t.P99)
	case backlog > allowed:
		return false, fmt.Sprintf("backlog=%d", backlog)
	}
	return true, fmt.Sprintf("ok(p99=%.1fms)", t.P99)
}

// checkAgainstDirect scans every served item, and every item of the
// quality prefix, with a fresh scanner built from the same models and
// options minus the dedup cache and the store whose transparency is under
// test. It scores quality on the prefix and counts served verdicts that
// differ from the direct ones.
func checkAgainstDirect(w *Workload, sys *System, served *verdictBook) (Quality, int) {
	opts := sys.Opts
	opts.Dedup, opts.VerdictStore = false, nil
	ref, err := core.NewScanner(sys.L1, sys.L2, opts)
	if err != nil {
		return Quality{}, len(served.first) + 1
	}
	prefix := map[Item]bool{}
	var items []Item
	for _, req := range w.Requests {
		for _, it := range req {
			if !prefix[it] {
				prefix[it] = true
				items = append(items, it)
			}
		}
	}
	for it := range served.first {
		if !prefix[it] {
			items = append(items, it)
		}
	}
	res, _ := ref.ScanBatch(inputsOf(w, items))
	var q Quality
	bad := 0
	for j, it := range items {
		if prefix[it] {
			q.add(w.Truth(it), &res[j])
		}
		if k, ok := served.first[it]; ok && k != keyOfResult(&res[j]) {
			bad++
		}
	}
	return q, bad
}

func scaleDur(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}
