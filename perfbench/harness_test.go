package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/transform"
)

func mustConfig(t *testing.T) *Config {
	t.Helper()
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// The same seed must give byte-identical inputs, and another seed other
// inputs, for every workload.
func TestSameSeedSameInputs(t *testing.T) {
	cfg := mustConfig(t)
	for _, name := range workloadNames {
		a, err := Generate(cfg, name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(cfg, name, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Generate(cfg, name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest() != b.Digest() {
			t.Errorf("%s: seed 7 twice gave digests %s and %s", name, a.Digest(), b.Digest())
		}
		if a.Digest() == c.Digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a.Digest())
		}
		// The crawl stream past the generated prefix is deterministic too.
		if name == "crawl" {
			sa, sb := a.Stream(), b.Stream()
			for k := 5000; k < 5010; k++ {
				for j, it := range sa.Get(k) {
					if a.Source(it) != b.Source(sb.Get(k)[j]) {
						t.Fatalf("crawl request %d differs between two streams of one seed", k)
					}
				}
			}
		}
	}
}

// The malware feed is corpus.BuildMalicious's, file for file, whenever no
// transform fails.
func TestMaliciousFeedMatchesCorpus(t *testing.T) {
	for _, mc := range corpus.DefaultMaliciousConfigs(2) {
		want, err := corpus.BuildMalicious(mc, rngFor(1, mc.Source))
		if err != nil {
			t.Fatal(err)
		}
		w := &Workload{}
		got := w.maliciousFeed(mc, rngFor(1, mc.Source))
		if w.Rejected != 0 || len(got) != len(want) {
			t.Fatalf("%s: %d files, %d rejected; corpus built %d", mc.Source, len(got), w.Rejected, len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Source != want[i].Source || fmt.Sprint(got[i].Techniques) != fmt.Sprint(want[i].Techniques) {
				t.Fatalf("%s: file %d differs from corpus.BuildMalicious", mc.Source, i)
			}
		}
	}
}

// Every input a run sends passes the paper's filter.
func TestGeneratedInputsPassFilter(t *testing.T) {
	cfg := mustConfig(t)
	for _, name := range workloadNames {
		w, err := Generate(cfg, name, 3)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, req := range w.Requests {
			for _, it := range req {
				if checked >= 300 {
					break
				}
				if r := corpus.Filter(w.Source(it)); r != corpus.FilterAccepted {
					t.Errorf("%s: %s rejected by the filter (%d)", name, w.Path(it), r)
				}
				checked++
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "file", Parent: -1, Start: 0, End: 100},
		{Name: "parser", Parent: 0, Start: 10, End: 30},
		{Name: "flow", Parent: 0, Start: 20, End: 50},      // overlaps parser
		{Name: "features", Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "lex", Parent: 1, Start: 12, End: 18},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		// 100 minus the union [10,50) and [90,100) of its children.
		"file":     50,
		"parser":   14,
		"flow":     30,
		"features": 30,
		"lex":      6,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(true)
	root := tr.begin("file", 3)
	child := tr.begin("parser", 3)
	tr.end(child)
	tr.end(root)
	next := tr.begin("file", 4)
	tr.end(next)
	if tr.Spans[child].Parent != root || tr.Spans[next].Parent != -1 {
		t.Fatalf("parents: %+v", tr.Spans)
	}
	off := newTracer(false)
	off.end(off.begin("file", 1))
	if len(off.Spans) != 0 {
		t.Fatal("a disabled tracer recorded spans")
	}
}

// A stalled request delays the ones scheduled behind it, and the open loop
// charges that wait to them: their latency runs from the scheduled time.
func TestOpenLoopChargesStall(t *testing.T) {
	const gap = 2 * time.Millisecond
	sched := make([]time.Duration, 12)
	for k := range sched {
		sched[k] = time.Duration(k) * gap
	}
	stall := 40 * time.Millisecond
	recs := openLoop(sched, 1, func(k int) (int64, int, bool) {
		if k == 0 {
			time.Sleep(stall)
		}
		return 0, 1, false
	})
	for k := 1; k < 10; k++ {
		want := stall - time.Duration(k)*gap
		if got := recs[k].Done - recs[k].Sched; got < want {
			t.Errorf("request %d: latency %v, want at least %v", k, got, want)
		}
		if got := recs[k].Sent - recs[k].Sched; got < want {
			t.Errorf("request %d: lateness %v, want at least %v", k, got, want)
		}
	}
	if recs[0].LateMs() > 20 {
		t.Errorf("the first request was sent %.1fms late", recs[0].LateMs())
	}
}

func TestBacklogAt(t *testing.T) {
	recs := []Record{
		{Sched: 0, Done: 5},
		{Sched: 3, Done: 20},
		{Sched: 8, Done: 12},
		{Sched: 15, Done: 30},
	}
	if got := backlogAt(recs, 10); got != 2 {
		t.Fatalf("backlog at 10 = %d, want 2", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 99.99}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {40, 75}, {5, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if q := quantile([]float64{1, 2, 3, 4}, 0.5); q != 2 {
		t.Errorf("nearest-rank median of 1..4 = %g, want 2", q)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json declares exactly the metrics the harness reports, under
// names the BENCHMARK.json format accepts (at most 64 letters, digits, "_",
// "." and "-", starting with a letter or digit).
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the harness:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
		Work     []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name, Unit, Better string }) string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return strings.Join(out, ",")
	}
	if got, want := names(b.EndToEnd), strings.Join(endToEnd, ","); got != want {
		t.Errorf("end_to_end = %s, harness reports %s", got, want)
	}
	if got, want := names(b.PerLayer), strings.Join(perLayer, ","); got != want {
		t.Errorf("per_layer = %s, harness reports %s", got, want)
	}
	seen := map[string]bool{}
	for _, n := range append(append([]string{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, metricName)
		}
		if seen[n] {
			t.Errorf("metric name %q used twice", n)
		}
		seen[n] = true
	}
	// The gated workloads are workloads the harness generates, in its order.
	k := 0
	for _, wl := range b.Work {
		for k < len(workloadNames) && workloadNames[k] != wl.Name {
			k++
		}
		if k == len(workloadNames) {
			t.Errorf("BENCHMARK.json workload %q is not one of %v, in that order", wl.Name, workloadNames)
			break
		}
	}
}

func TestWindowRates(t *testing.T) {
	cps := []checkpoint{
		{At: 0, CPU: 0, Files: 0},
		{At: 500 * time.Millisecond, CPU: 800 * time.Millisecond, Files: 100},
		{At: 1500 * time.Millisecond, CPU: 1200 * time.Millisecond, Files: 200},
	}
	rates, cpu := windowRates(cps)
	if len(rates) != 2 || rates[0] != 200 || rates[1] != 100 {
		t.Errorf("files/s per window = %v, want [200 100]", rates)
	}
	if len(cpu) != 2 || cpu[0] != 8 || cpu[1] != 4 {
		t.Errorf("cpu ms/file per window = %v, want [8 4]", cpu)
	}
}

// A closed loop checkpoints after every window of completed requests, and
// the checkpoints count every file completed before them.
func TestClosedLoopCheckpoints(t *testing.T) {
	recs, cps, _ := closedLoop(2, 50*time.Millisecond, 5, func(k int) (int64, int, bool) {
		time.Sleep(time.Millisecond)
		return 0, 3, false
	})
	if want := 1 + len(recs)/5; len(cps) != want {
		t.Fatalf("%d checkpoints for %d requests, want %d", len(cps), len(recs), want)
	}
	for i, cp := range cps {
		if cp.Files != 15*i {
			t.Errorf("checkpoint %d counts %d files, want %d", i, cp.Files, 15*i)
		}
	}
}

// A pass loop issues every request exactly once per pass, counts each
// pass's files, and does not start a pass once it would overrun d.
func TestPassLoopWholePasses(t *testing.T) {
	const n = 6
	var mu sync.Mutex
	issued := map[int]int{}
	passes, wall := passLoop(2, 30*time.Millisecond, n, func(k int) (int64, int, bool) {
		mu.Lock()
		issued[k]++
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return 0, 2, false
	})
	if len(passes) < 1 {
		t.Fatal("no pass ran")
	}
	for k := 0; k < n; k++ {
		if issued[k] != len(passes) {
			t.Errorf("request %d issued %d times in %d passes", k, issued[k], len(passes))
		}
	}
	for i, p := range passes {
		if len(p.Recs) != n || p.Files != 2*n || p.Wall <= 0 {
			t.Errorf("pass %d: %d records, %d files, wall %v", i, len(p.Recs), p.Files, p.Wall)
		}
	}
	if last := passes[len(passes)-1].Wall; len(passes) > 1 && wall > 30*time.Millisecond+last {
		t.Errorf("loop ran %v, past d plus one pass (%v)", wall, last)
	}
}

// The replay's verdict codec must give back every probability bit for bit,
// so a replay store hit reports the verdict that was stored.
func TestVerdictCodecRoundTrip(t *testing.T) {
	in := core.FileResult{Bytes: 123, Level1: core.Level1Result{Regular: 0.1, Minified: 0.2, Obfuscated: 0.7000000000000001}}
	l2 := core.Level2Result{}
	for i, tech := range transform.Techniques {
		l2.Ranked = append(l2.Ranked, core.TechniquePrediction{Technique: tech, Probability: 1 / float64(i+3)})
	}
	in.Level2 = &l2
	for _, r := range []core.FileResult{in, {Bytes: 9, Bypassed: true, Level1: core.Level1Result{Minified: 1}}, {Err: errors.New("parse: x")}} {
		raw, err := encodeVerdict(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeVerdict(raw)
		if err != nil {
			t.Fatal(err)
		}
		if keyOfResult(&got) != keyOfResult(&r) || got.Bytes != r.Bytes {
			t.Errorf("round trip of %s changed the verdict", raw)
		}
	}
}

func TestStratifiedClasses(t *testing.T) {
	mix := map[string]float64{"a": 0.5, "b": 0.3, "c": 0.2}
	got := stratifiedClasses([]string{"a", "b", "c"}, mix, 1, 10)
	if want := "[a b c a a b a c b a]"; fmt.Sprint(got) != want {
		t.Errorf("classes %v, want %s", got, want)
	}
}
