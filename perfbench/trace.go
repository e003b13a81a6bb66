package main

import (
	"bufio"
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/js/lexer"
	"repro/internal/js/parser"
	"repro/internal/store"
	"repro/internal/transform"
	"repro/internal/triage"
)

// Span is one timed call into a layer. Start and End are nanoseconds since
// the tracer started; Parent is the index of the enclosing span, -1 for a
// root. File identifies the input the call worked on.
type Span struct {
	Name   string `json:"name"`
	File   int32  `json:"file"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Tracer records spans in memory. A disabled tracer reads no clock and
// records nothing, so the same replay code runs traced and untraced.
type Tracer struct {
	on    bool
	t0    time.Time
	cur   int32
	Spans []Span
}

func newTracer(on bool) *Tracer { return &Tracer{on: on, t0: time.Now(), cur: -1} }

// begin opens a span as a child of the innermost open span.
func (t *Tracer) begin(name string, file int) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.Spans))
	t.Spans = append(t.Spans, Span{Name: name, File: int32(file), Parent: t.cur, Start: int64(time.Since(t.t0))})
	t.cur = id
	return id
}

// end closes span id, which must be the innermost open span.
func (t *Tracer) end(id int32) {
	if !t.on {
		return
	}
	t.Spans[id].End = int64(time.Since(t.t0))
	t.cur = t.Spans[id].Parent
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of its interval that its children cover (overlapping
// children count once; child time outside the parent is ignored).
func selfTimes(spans []Span) map[string]time.Duration {
	children := map[int32][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[int32(i)]))
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	at := lo
	for _, iv := range ivs {
		a, b := max(iv[0], at), min(iv[1], hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lru mirrors the scanner's bounded dedup cache for the replay.
type lru struct {
	cap   int
	order *list.List
	items map[[32]byte]*list.Element
}

type lruEntry struct {
	key [32]byte
	res core.FileResult
}

func newLRU(capacity int) *lru {
	if capacity <= 0 {
		capacity = core.DefaultDedupCapacity
	}
	return &lru{cap: capacity, order: list.New(), items: map[[32]byte]*list.Element{}}
}

func (c *lru) get(k [32]byte) (core.FileResult, bool) {
	if e, ok := c.items[k]; ok {
		c.order.MoveToFront(e)
		return e.Value.(*lruEntry).res, true
	}
	return core.FileResult{}, false
}

func (c *lru) put(k [32]byte, r core.FileResult) {
	if e, ok := c.items[k]; ok {
		e.Value.(*lruEntry).res = r
		c.order.MoveToFront(e)
		return
	}
	c.items[k] = c.order.PushFront(&lruEntry{key: k, res: r})
	if c.order.Len() > c.cap {
		old := c.order.Back()
		c.order.Remove(old)
		delete(c.items, old.Value.(*lruEntry).key)
	}
}

// replayer re-runs the scanner's per-file cascade on one worker through the
// same public calls scanOne and scanFile make — dedup lookup, store Get,
// triage.Route, ParseNoTokens, FlowSession, AnalyzeParsed, ExtractFull,
// ProbsVec, store Put — with a span around each call.
type replayer struct {
	sys   *System
	opts  core.ScanOptions
	tr    *Tracer
	ps    *parser.Session
	fs    *flow.Session
	cache *lru
	store *store.Store
	salt  [32]byte

	// Work counters, filled only while tracing.
	parseBytes, nodes     int64
	parseAlloc, featAlloc uint64
	gets, puts            int
}

func newReplayer(sys *System, tr *Tracer, storeDir string) (*replayer, error) {
	rp := &replayer{sys: sys, opts: sys.Opts, tr: tr, ps: parser.NewSession(), fs: flow.NewSession()}
	if rp.opts.Dedup {
		rp.cache = newLRU(rp.opts.DedupCapacity)
	}
	if rp.opts.VerdictStore != nil {
		st, err := store.Open(storeDir)
		if err != nil {
			return nil, err
		}
		rp.store = st
		rp.salt = sha256.Sum256([]byte(sys.ModelDigest))
	}
	return rp, nil
}

func (rp *replayer) close() {
	if rp.store != nil {
		rp.store.Close()
	}
}

// storedVerdict and storedPrediction copy the layout of the scanner's
// verdict codec (internal/core/verdict.go), which core does not export, so
// the replay's store reads and writes records of the same format and size
// as the Scanner's. The replay returns the decoded record on a store hit,
// so the bit-for-bit check against the Scanner covers the copy. As in
// scanOne, encoding and decoding happen outside the store spans and count
// in scanner.other_ms.
type storedVerdict struct {
	V           int                   `json:"v"`
	Bytes       int                   `json:"bytes"`
	Level1      [3]float64            `json:"level1"`
	Level2      []storedPrediction    `json:"level2,omitempty"`
	Diagnostics []analysis.Diagnostic `json:"diagnostics,omitempty"`
	Err         string                `json:"err,omitempty"`
	Bypassed    bool                  `json:"bypassed,omitempty"`
}

type storedPrediction struct {
	Technique   string  `json:"technique"`
	Probability float64 `json:"probability"`
}

func encodeVerdict(r core.FileResult) ([]byte, error) {
	sv := storedVerdict{
		V:           1,
		Bytes:       r.Bytes,
		Level1:      [3]float64{r.Level1.Regular, r.Level1.Minified, r.Level1.Obfuscated},
		Diagnostics: r.Diagnostics,
		Bypassed:    r.Bypassed,
	}
	if r.Err != nil {
		sv.Err = r.Err.Error()
	}
	if r.Level2 != nil {
		sv.Level2 = make([]storedPrediction, len(r.Level2.Ranked))
		for i, p := range r.Level2.Ranked {
			sv.Level2[i] = storedPrediction{Technique: p.Technique.String(), Probability: p.Probability}
		}
	}
	return json.Marshal(sv)
}

func decodeVerdict(raw []byte) (core.FileResult, error) {
	var sv storedVerdict
	if err := json.Unmarshal(raw, &sv); err != nil {
		return core.FileResult{}, err
	}
	out := core.FileResult{
		Bytes:       sv.Bytes,
		Level1:      core.Level1Result{Regular: sv.Level1[0], Minified: sv.Level1[1], Obfuscated: sv.Level1[2]},
		Diagnostics: sv.Diagnostics,
		Bypassed:    sv.Bypassed,
	}
	if sv.Err != "" {
		out.Err = errors.New(sv.Err)
	}
	if sv.Level2 != nil {
		res := core.Level2Result{Ranked: make([]core.TechniquePrediction, len(sv.Level2))}
		for i, p := range sv.Level2 {
			tech, err := transform.ParseTechnique(p.Technique)
			if err != nil {
				return core.FileResult{}, err
			}
			res.Ranked[i] = core.TechniquePrediction{Technique: tech, Probability: p.Probability}
		}
		out.Level2 = &res
	}
	return out, nil
}

// storeKey folds the replayer's salt into a content hash, the way the
// Scanner salts its store keys with its model identity.
func (rp *replayer) storeKey(k [32]byte) store.Key {
	h := sha256.New()
	h.Write(k[:])
	h.Write(rp.salt[:])
	var out store.Key
	h.Sum(out[:0])
	return out
}

// file classifies one input the way Scanner.scanOne does.
func (rp *replayer) file(i int, src string) core.FileResult {
	tr := rp.tr
	root := tr.begin("file", i)
	defer tr.end(root)
	var key [32]byte
	if rp.cache != nil || rp.store != nil {
		id := tr.begin("hash", i)
		key = sha256.Sum256([]byte(src))
		tr.end(id)
	}
	if rp.cache != nil {
		id := tr.begin("cache", i)
		r, ok := rp.cache.get(key)
		tr.end(id)
		if ok {
			return r
		}
	}
	if rp.store != nil {
		sk := rp.storeKey(key)
		id := tr.begin("store.get", i)
		raw, ok := rp.store.Get(sk)
		tr.end(id)
		rp.gets++
		if ok {
			if r, err := decodeVerdict(raw); err == nil {
				r.Bytes = len(src)
				rp.cachePut(key, r)
				return r
			}
		}
	}
	var out core.FileResult
	bypassed := false
	if rp.opts.Triage {
		id := tr.begin("triage", i)
		d, _ := triage.Route(src, rp.opts.TriageConfig)
		tr.end(id)
		if d.Bypassed() {
			bypassed = true
			out = core.FileResult{Bytes: len(src), Bypassed: true}
			if d == triage.BypassMinified {
				out.Level1 = core.Level1Result{Minified: 1}
			} else {
				out.Level1 = core.Level1Result{Regular: 1}
			}
		}
	}
	if !bypassed {
		out = rp.pipeline(i, src)
	}
	if rp.store != nil {
		if raw, err := encodeVerdict(out); err == nil {
			sk := rp.storeKey(key)
			id := tr.begin("store.put", i)
			rp.store.Put(sk, raw)
			tr.end(id)
			rp.puts++
		}
	}
	rp.cachePut(key, out)
	return out
}

func (rp *replayer) cachePut(key [32]byte, r core.FileResult) {
	if rp.cache != nil {
		rp.cache.put(key, r)
	}
}

// pipeline mirrors Scanner.scanFile.
func (rp *replayer) pipeline(i int, src string) core.FileResult {
	tr, on := rp.tr, rp.tr.on
	ext := rp.sys.L1.Extractor()
	out := core.FileResult{Bytes: len(src)}
	var a0 uint64
	if on {
		a0 = allocBytes()
	}
	id := tr.begin("parser", i)
	res, err := rp.ps.ParseNoTokens(src)
	tr.end(id)
	if on {
		rp.parseAlloc += allocBytes() - a0
		rp.parseBytes += int64(len(src))
	}
	if err != nil {
		out.Err = fmt.Errorf("parse: %w", err)
		return out
	}
	if on {
		rp.nodes += int64(res.Program.NodeCount)
	}
	id = tr.begin("flow", i)
	g := ext.FlowSession(rp.fs, res)
	tr.end(id)
	var diags []analysis.Diagnostic
	if rp.opts.Explain || ext.Options().RuleFeatures {
		id = tr.begin("analysis", i)
		diags = analysis.AnalyzeParsed(src, res, g)
		tr.end(id)
	}
	if on {
		a0 = allocBytes()
	}
	id = tr.begin("features", i)
	vec := ext.ExtractFull(src, res, g, diags)
	tr.end(id)
	if on {
		rp.featAlloc += allocBytes() - a0
	}
	id = tr.begin("ml", i)
	out.Level1 = core.Level1FromProbs(rp.sys.L1.ProbsVec(vec))
	if out.Level1.IsTransformed() || rp.opts.ForceLevel2 {
		r := core.Level2FromProbs(rp.sys.L2.ProbsVec(vec))
		out.Level2 = &r
	}
	tr.end(id)
	if rp.opts.Explain {
		out.Diagnostics = diags
	}
	return out
}

// lexStats is the standalone lexer pass over a workload's distinct inputs.
type lexStats struct {
	Tokens, Bytes int64
	Errors        int
	Dur           time.Duration
}

// lexAll tokenizes every source with lexer.NextInto, resuming template
// literals after each substitution the way the parser does.
func lexAll(srcs []string) lexStats {
	var st lexStats
	lx := lexer.New("")
	var tok lexer.Token
	start := time.Now()
	for _, src := range srcs {
		st.Bytes += int64(len(src))
		n, err := lexOne(lx, src, &tok)
		st.Tokens += int64(n)
		if err != nil {
			st.Errors++
		}
	}
	st.Dur = time.Since(start)
	return st
}

func lexOne(lx *lexer.Lexer, src string, tok *lexer.Token) (int, error) {
	lx.Reset(src)
	var open []int // brace depth at each open template substitution
	depth, n := 0, 0
	for {
		if err := lx.NextInto(tok); err != nil {
			return n, err
		}
		if tok.Kind == lexer.EOF {
			return n, nil
		}
		n++
		switch {
		case tok.Kind == lexer.TemplateHead:
			open = append(open, depth)
		case tok.Kind == lexer.Punct && tok.Lexeme == "{":
			depth++
		case tok.Kind == lexer.Punct && tok.Lexeme == "}":
			if len(open) > 0 && open[len(open)-1] == depth {
				open = open[:len(open)-1]
				cont, err := lx.RescanTemplateContinue(*tok)
				if err != nil {
					return n, err
				}
				if cont.Kind == lexer.TemplateMiddle {
					open = append(open, depth)
				}
				continue
			}
			depth--
		}
	}
}
