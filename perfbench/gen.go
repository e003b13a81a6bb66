package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/corpus"
	"repro/internal/js/parser"
	"repro/internal/transform"
	"repro/internal/triage"
)

// Item is one script of a request: a generated file, optionally stamped
// for one crawled site (Site >= 0), which makes its bytes unique to that
// site while keeping the file's code and ground truth.
type Item struct {
	File int32
	Site int32
}

// Workload is one generated input set. Files holds every generated script
// with its ground truth; Requests lists, in arrival or scan order, the items
// each request (crawl) or ScanBatch call (batch workloads) carries. Batch
// workloads cycle through Requests; the crawl workload draws requests from
// a Stream and Requests is its prefix.
type Workload struct {
	Name     string
	Files    []corpus.File
	Requests [][]Item
	// sites are the crawl's site templates (file indices of one page or
	// package) and libs its popular library scripts.
	sites [][]int
	libs  []int
	crawl CrawlConfig
	seed  int64
	// Rejected counts generated scripts the paper's filter turned away.
	Rejected int
}

// Source returns the bytes of an item.
func (w *Workload) Source(it Item) string {
	src := w.Files[it.File].Source
	if it.Site < 0 {
		return src
	}
	// A site's own copy of a script carries its site configuration, the way
	// an analytics or config snippet differs per site. Minified code gets it
	// without a line break.
	if w.Files[it.File].Minified() {
		return fmt.Sprintf("var __site=\"s%d\";", it.Site) + src
	}
	return fmt.Sprintf("var __site = \"s%d\";\n", it.Site) + src
}

// Path names an item in requests and reports.
func (w *Workload) Path(it Item) string {
	if it.Site < 0 {
		return w.Files[it.File].Name
	}
	return fmt.Sprintf("site%d/%s", it.Site, w.Files[it.File].Name)
}

// Truth is the item's ground truth.
func (w *Workload) Truth(it Item) *corpus.File { return &w.Files[it.File] }

// rngFor derives an independent generator for one component of a workload,
// so adding a component never shifts the draws of another.
func rngFor(seed int64, component string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, component)))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}

// accept applies the paper's file filter (Section III-D1: 512 B to 2 MB,
// parses, contains code) to a generated script, counting rejections. The
// transforms occasionally emit code that does not parse (dead-code
// injection can name a parameter after a reserved word); such a script is
// not a valid input, so it never reaches the system under test.
func (w *Workload) accept(src string) bool {
	if corpus.Filter(src) == corpus.FilterAccepted {
		return true
	}
	w.Rejected++
	return false
}

// workloadNames are the workloads Generate knows. BENCHMARK.json lists the
// ones the benchmark gates, in this order; bundles runs by hand only (see
// README.md).
var workloadNames = []string{"crawl", "malware", "bundles"}

// Generate builds the named workload from seed.
func Generate(cfg *Config, name string, seed int64) (*Workload, error) {
	switch name {
	case "crawl":
		return genCrawl(cfg.Crawl, seed)
	case "malware":
		return genMalware(cfg.Malware, seed)
	case "bundles":
		return genBundles(cfg.Bundles, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want crawl, malware or bundles)", name)
}

// genCrawl builds the Section IV-B crawl: site templates from the
// Alexa-like and npm-like collections (1-8 scripts each) and a pool of
// popular library scripts. Every request crawls a new site (see Stream).
func genCrawl(c CrawlConfig, seed int64) (*Workload, error) {
	w := &Workload{Name: "crawl", crawl: c, seed: seed}
	libCfg := corpus.AlexaConfig(c.Libraries)
	libCfg.MaxScriptsPerUnit = 1
	libCfg.Origin = "lib"
	libs, err := corpus.BuildRanked(libCfg, rngFor(seed, "crawl/libraries"))
	if err != nil {
		return nil, err
	}
	for _, f := range libs {
		if w.accept(f.Source) {
			w.libs = append(w.libs, len(w.Files))
			w.Files = append(w.Files, f)
		}
	}
	alexa, err := corpus.BuildRanked(corpus.AlexaConfig(c.AlexaSites), rngFor(seed, "crawl/alexa"))
	if err != nil {
		return nil, err
	}
	npm, err := corpus.BuildNpm(corpus.NpmConfig(c.NpmPackages), rngFor(seed, "crawl/npm"))
	if err != nil {
		return nil, err
	}
	for _, coll := range [][]corpus.File{alexa, npm} {
		var site []int
		for i, f := range coll {
			if w.accept(f.Source) {
				site = append(site, len(w.Files))
				w.Files = append(w.Files, f)
			}
			if i+1 == len(coll) || coll[i+1].Rank != f.Rank {
				if len(site) > 0 {
					w.sites = append(w.sites, site)
				}
				site = nil
			}
		}
	}
	st := w.Stream()
	for i := 0; i < propertyRequests; i++ {
		w.Requests = append(w.Requests, st.Get(i))
	}
	return w, nil
}

// propertyRequests is the crawl prefix the workload property report and the
// quality scores describe.
const propertyRequests = 2000

// Stream is the crawl's arrival stream, extended on demand. Request k
// crawls site k, built on a template drawn uniformly from the collections;
// each script slot is, with probability LibraryShare, a popular library
// drawn Zipf(LibraryZipf) — byte-identical across sites — and otherwise the
// template's script stamped for site k. The stream depends only on the
// seed, so every run with the same seed sends the same requests in the same
// order, however many each phase consumes.
type Stream struct {
	mu   sync.Mutex
	r    *rand.Rand
	z    *rand.Zipf
	w    *Workload
	reqs [][]Item
}

// Stream starts the crawl's request stream from its beginning.
func (w *Workload) Stream() *Stream {
	r := rngFor(w.seed, "crawl/stream")
	return &Stream{w: w, r: r, z: rand.NewZipf(r, w.crawl.LibraryZipf, 1, uint64(len(w.libs)-1))}
}

// Get returns request k of the stream.
func (s *Stream) Get(k int) []Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= k {
		site := int32(len(s.reqs))
		tmpl := s.w.sites[s.r.Intn(len(s.w.sites))]
		req := make([]Item, len(tmpl))
		for j, f := range tmpl {
			if s.r.Float64() < s.w.crawl.LibraryShare {
				req[j] = Item{File: int32(s.w.libs[s.z.Uint64()]), Site: -1}
			} else {
				req[j] = Item{File: int32(f), Site: site}
			}
		}
		s.reqs = append(s.reqs, req)
	}
	return s.reqs[k]
}

// genMalware builds the Section IV-C feeds (DNC, Hynek, BSI mixes) at the
// configured scale. Feeds arrive in clone waves; untransformed and
// deterministically transformed clones are byte-identical.
func genMalware(c MalwareConfig, seed int64) (*Workload, error) {
	w := &Workload{Name: "malware", seed: seed}
	for _, mc := range corpus.DefaultMaliciousConfigs(c.Scale) {
		for _, f := range w.maliciousFeed(mc, rngFor(seed, "malware/"+mc.Source)) {
			if w.accept(f.Source) {
				w.Files = append(w.Files, f)
			}
		}
	}
	w.Requests = chunks(len(w.Files), c.Chunk)
	return w, nil
}

// maliciousFeed draws one feed the way corpus.BuildMalicious does, with one
// difference: a clone whose transform chain emits code that does not parse
// is counted as rejected and left out, where BuildMalicious abandons the
// whole feed. Such a clone is not a valid input (the paper's filter turns
// away scripts that do not parse), and a feed must not depend on none
// occurring: with dead-code injection followed by identifier obfuscation,
// some seeds produce one.
func (w *Workload) maliciousFeed(cfg corpus.MaliciousConfig, rng *rand.Rand) []corpus.File {
	mix := corpus.MaliciousMixes[cfg.Source]
	family := func() corpus.MaliciousFamily {
		switch cfg.Source {
		case "dnc":
			return corpus.FamilyExploitKit
		case "bsi":
			return corpus.FamilyLoader
		}
		fams := []corpus.MaliciousFamily{corpus.FamilyDropper, corpus.FamilyLoader, corpus.FamilyExploitKit}
		return fams[rng.Intn(len(fams))]
	}
	var files []corpus.File
	for n := 0; n < cfg.Count; {
		month := rng.Intn(cfg.Months)
		base := corpus.File{Source: corpus.GenerateMalicious(rng, family()), Origin: cfg.Source, Month: month}
		for len(base.Source) < corpus.MinSize {
			base.Source += "\n" + corpus.GenerateMalicious(rng, family())
		}
		wave := 1
		if cfg.WaveSize > 1 && rng.Float64() < 0.4 {
			wave = 1 + rng.Intn(cfg.WaveSize)
		}
		transformed := rng.Float64() < cfg.TransformedRate
		var techs []transform.Technique
		if transformed {
			techs = mix.Draw(rng)
		}
		for i := 0; i < wave && n < cfg.Count; i, n = i+1, n+1 {
			f := base
			f.Name = fmt.Sprintf("%s_m%02d_%05d.js", cfg.Source, month, n)
			if transformed {
				tf, err := corpus.Apply(f, rng, techs...)
				if err != nil {
					w.Rejected++
					continue
				}
				f = tf
			}
			files = append(files, f)
		}
	}
	return files
}

// bundleTechniques maps the bundle classes of workloads.json to techniques.
var bundleTechniques = func() map[string]transform.Technique {
	m := map[string]transform.Technique{}
	for _, t := range transform.Techniques {
		m[t.String()] = t
	}
	return m
}()

// genBundles builds shipped libraries: each bundle concatenates corpus
// scripts of one class (plain, or one technique applied per script) up to a
// target size. Sizes are log-uniform between MinKB and MaxKB, stratified so
// each seed draws one size from each of Files equal-probability bands, and
// the bands' classes are fixed by stratifiedClasses.
func genBundles(c BundlesConfig, seed int64) (*Workload, error) {
	w := &Workload{Name: "bundles", seed: seed}
	r := rngFor(seed, "bundles")
	bases := corpus.RegularSet(c.BaseScripts, rngFor(seed, "bundles/bases"))
	classes := make([]string, 0, len(c.Mix))
	for k := range c.Mix {
		if k != "plain" {
			if _, ok := bundleTechniques[k]; !ok {
				return nil, fmt.Errorf("bundles: unknown class %q", k)
			}
		}
		classes = append(classes, k)
	}
	sort.Strings(classes)
	total := 0.0
	for _, k := range classes {
		total += c.Mix[k]
	}
	type partKey struct {
		class string
		base  int
	}
	parts := map[partKey]string{}
	lo, hi := math.Log(float64(c.MinKB)*1024), math.Log(float64(c.MaxKB)*1024)
	classOf := stratifiedClasses(classes, c.Mix, total, c.Files)
	for i := 0; i < c.Files; i++ {
		size := int(math.Exp(lo + (float64(i)+r.Float64())/float64(c.Files)*(hi-lo)))
		class := classOf[i]
		tech, transformed := bundleTechniques[class]
		// Minified parts are joined without line breaks, as bundlers emit
		// them; the rest keep one script per block.
		sep := "\n\n"
		if transformed && tech.IsMinification() {
			sep = ";"
		}
		var b strings.Builder
		for b.Len() < size {
			k := partKey{class, r.Intn(len(bases))}
			src, ok := parts[k]
			if !ok {
				src = bases[k.base].Source
				if transformed {
					// A part is not a file, so only the filter's
					// "parses" clause applies to it.
					tf, err := corpus.Apply(bases[k.base], r, tech)
					if err == nil {
						_, err = parser.ParseNoTokens(tf.Source)
					}
					if err != nil {
						w.Rejected++
						src = ""
					} else {
						src = tf.Source
					}
				}
				parts[k] = src
			}
			if src == "" {
				continue
			}
			if b.Len() > 0 {
				b.WriteString(sep)
			}
			b.WriteString(src)
		}
		f := corpus.File{Name: fmt.Sprintf("bundle_%03d_%s.js", i, strings.ReplaceAll(class, " ", "_")), Source: b.String(), Origin: "bundle"}
		if transformed {
			f.Techniques = []transform.Technique{tech}
		}
		if len(f.Source) > corpus.MaxSize {
			return nil, fmt.Errorf("bundles: %s is %d bytes, over the paper's 2 MB filter", f.Name, len(f.Source))
		}
		w.Files = append(w.Files, f)
	}
	r.Shuffle(len(w.Files), func(i, j int) { w.Files[i], w.Files[j] = w.Files[j], w.Files[i] })
	w.Requests = chunks(len(w.Files), c.Chunk)
	return w, nil
}

// stratifiedClasses assigns a class to each of n size bands, smallest band
// first, in proportion to the class weights: each band goes to the class
// furthest behind its quota (ties to the earlier class). Every seed thus
// scans the same class mix spread evenly over the sizes; only the scripts
// differ.
func stratifiedClasses(classes []string, mix map[string]float64, total float64, n int) []string {
	out := make([]string, n)
	given := make([]int, len(classes))
	for i := range out {
		best, gap := 0, math.Inf(-1)
		for k, class := range classes {
			if g := mix[class]/total*float64(i+1) - float64(given[k]); g > gap {
				best, gap = k, g
			}
		}
		given[best]++
		out[i] = classes[best]
	}
	return out
}

// chunks splits files [0, n) into consecutive requests of size k (the last
// may be shorter).
func chunks(n, k int) [][]Item {
	if k < 1 {
		k = 1
	}
	var out [][]Item
	for i := 0; i < n; i += k {
		req := make([]Item, 0, k)
		for j := i; j < n && j < i+k; j++ {
			req = append(req, Item{File: int32(j), Site: -1})
		}
		out = append(out, req)
	}
	return out
}

// Digest is a SHA-256 over every generated input, in request order, so two
// runs can prove they scanned byte-identical inputs.
func (w *Workload) Digest() string {
	h := sha256.New()
	for _, req := range w.Requests {
		for _, it := range req {
			src := w.Source(it)
			fmt.Fprintf(h, "%d:%s\x00", len(src), src)
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// Properties describes a workload the way a later optimisation has to cite
// it: how big its files are, how many are transformed, how much content
// repeats, and how much the triage router would bypass.
type Properties struct {
	Files          int     `json:"files"`
	DistinctFiles  int     `json:"distinct_files"`
	SizeP50KB      float64 `json:"size_p50_kb"`
	SizeP90KB      float64 `json:"size_p90_kb"`
	SizeMaxKB      float64 `json:"size_max_kb"`
	TransformedPct float64 `json:"transformed_pct"`
	RepeatPct      float64 `json:"repeat_pct"`
	BypassPct      float64 `json:"triage_bypass_pct"`
	// Rejected counts generated scripts the paper's filter turned away.
	Rejected int `json:"filter_rejected"`
}

// Describe computes the property report over the workload's request list
// (for crawl, its first propertyRequests requests): sizes over the scanned
// stream, repeats as the share of stream items whose bytes appeared earlier,
// transformed and bypass shares over the stream too.
func (w *Workload) Describe() Properties {
	p := Properties{Rejected: w.Rejected}
	seen := map[string]bool{}
	var sizes []float64
	transformed, repeats, bypass := 0, 0, 0
	routes := map[Item]bool{}
	for _, req := range w.Requests {
		for _, it := range req {
			src := w.Source(it)
			p.Files++
			sizes = append(sizes, float64(len(src))/1024)
			if w.Truth(it).Transformed() {
				transformed++
			}
			if seen[src] {
				repeats++
			} else {
				seen[src] = true
			}
			by, ok := routes[it]
			if !ok {
				d, _ := triage.Route(src, triage.Config{})
				by = d.Bypassed()
				routes[it] = by
			}
			if by {
				bypass++
			}
		}
	}
	p.DistinctFiles = len(seen)
	sort.Float64s(sizes)
	p.SizeP50KB = round3(quantile(sizes, 0.5))
	p.SizeP90KB = round3(quantile(sizes, 0.9))
	p.SizeMaxKB = round3(sizes[len(sizes)-1])
	p.TransformedPct = round3(100 * float64(transformed) / float64(p.Files))
	p.RepeatPct = round3(100 * float64(repeats) / float64(p.Files))
	p.BypassPct = round3(100 * float64(bypass) / float64(p.Files))
	return p
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
