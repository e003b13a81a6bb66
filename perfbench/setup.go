package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/service"
	"repro/internal/store"
)

// System is everything set-up builds: the loaded detectors, the scanner
// configured the way the workload's user runs it, and for the crawl the
// verdict store and the daemon on a loopback listener.
type System struct {
	L1, L2  *core.Detector
	Opts    core.ScanOptions
	Scanner *core.Scanner
	Store   *store.Store
	Server  *service.Server
	URL     string
	// ModelDigest identifies the trained models (SHA-256 of both files).
	ModelDigest string

	httpSrv *http.Server
	dir     string
}

// scanOptions returns the options each workload's user scans with:
// jsscand's defaults plus -triage and a store for the crawl, an analyst's
// explain/full-ranking/dedup/triage run for the malware feed, and plain
// jsdetect defaults for bundles.
func scanOptions(cfg *Config, workload string) core.ScanOptions {
	nproc := runtime.NumCPU()
	switch workload {
	case "crawl":
		return core.ScanOptions{ForceLevel2: true, Dedup: true, DedupCapacity: cfg.Crawl.DedupCapacity, Triage: true}
	case "malware":
		return core.ScanOptions{Workers: nproc, Explain: true, ForceLevel2: true, Dedup: true, Triage: true}
	default:
		return core.ScanOptions{Workers: nproc}
	}
}

// trainModels trains both detectors at the configured scale with the fixed
// training seed, saves them, and loads them back through LoadLevelFile, the
// path jsdetect and jsscand take.
func trainModels(cfg *Config, dir string) (l1, l2 *core.Detector, digest string, err error) {
	t := cfg.Training
	opts := core.Options{
		Features: features.Options{NGramDims: t.Dims},
		Forest:   ml.ForestOptions{NumTrees: t.Trees, Parallel: true, Tree: ml.TreeOptions{MTry: t.MTry}},
		Seed:     t.Seed,
	}
	tr, err := core.Train(core.TrainConfig{NumRegular: t.Bases, Options: opts})
	if err != nil {
		return nil, nil, "", err
	}
	h := sha256.New()
	p1, p2 := filepath.Join(dir, "level1.model"), filepath.Join(dir, "level2.model")
	for _, m := range []struct {
		d    *core.Detector
		path string
	}{{tr.Level1, p1}, {tr.Level2, p2}} {
		if err := m.d.SaveFile(m.path); err != nil {
			return nil, nil, "", err
		}
		f, err := os.Open(m.path)
		if err != nil {
			return nil, nil, "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return nil, nil, "", err
		}
	}
	if l1, err = core.LoadLevelFile(p1, opts.Features, core.Level1Labels); err != nil {
		return nil, nil, "", err
	}
	if l2, err = core.LoadLevelFile(p2, opts.Features, core.Level2Labels()); err != nil {
		return nil, nil, "", err
	}
	return l1, l2, fmt.Sprintf("%x", h.Sum(nil))[:16], nil
}

// Setup generates the workload and builds the system in dir; the returned
// duration is the set-up time: everything before the first timed operation.
func Setup(cfg *Config, workload string, seed int64, dir string) (*Workload, *System, time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	w, err := Generate(cfg, workload, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	sys := &System{dir: dir, Opts: scanOptions(cfg, workload)}
	if sys.L1, sys.L2, sys.ModelDigest, err = trainModels(cfg, dir); err != nil {
		return nil, nil, 0, fmt.Errorf("train: %w", err)
	}
	if workload == "crawl" {
		if sys.Store, err = store.Open(filepath.Join(dir, "store")); err != nil {
			return nil, nil, 0, err
		}
		sys.Opts.VerdictStore = sys.Store
	}
	if sys.Scanner, err = core.NewScanner(sys.L1, sys.L2, sys.Opts); err != nil {
		sys.Close()
		return nil, nil, 0, err
	}
	if workload == "crawl" {
		if err := sys.serve(); err != nil {
			sys.Close()
			return nil, nil, 0, err
		}
	}
	return w, sys, time.Since(start), nil
}

// serve starts the daemon with jsscand's defaults on a loopback port.
func (s *System) serve() error {
	s.Server = service.New(s.Scanner, service.Config{})
	s.Server.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.URL = "http://" + ln.Addr().String() + "/v1/scan"
	s.httpSrv = &http.Server{Handler: s.Server.Handler()}
	go s.httpSrv.Serve(ln)
	return nil
}

// Close stops the daemon, closes the store and removes the run directory.
func (s *System) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.httpSrv != nil {
		s.httpSrv.Shutdown(ctx)
	}
	if s.Server != nil {
		s.Server.Drain(ctx)
	}
	if s.Store != nil {
		s.Store.Close()
	}
	os.RemoveAll(s.dir)
}
