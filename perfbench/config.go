package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// workloads.json fixes the parameters of each workload: the training scale,
// the generator parameters, the crawl latency limit and rate ladder, and the
// accuracy floors. How a run spends its --seconds is fixed in the code that
// runs it. It also records, for the
// reader, the metric table and the last measured workload properties; the
// harness ignores those sections.
//
//go:embed workloads.json
var configJSON []byte

// Config is the parsed workloads.json.
type Config struct {
	Training    TrainingConfig     `json:"training"`
	Crawl       CrawlConfig        `json:"crawl"`
	Malware     MalwareConfig      `json:"malware"`
	Bundles     BundlesConfig      `json:"bundles"`
	AccuracyMin map[string]float64 `json:"l1_accuracy_floor"`
}

// TrainingConfig sizes the detectors trained in set-up. The training seed is
// fixed so every run scans with the same model; only the workload varies
// with --seed.
type TrainingConfig struct {
	Bases int   `json:"bases"`
	Trees int   `json:"trees"`
	Dims  int   `json:"dims"`
	MTry  int   `json:"mtry"`
	Seed  int64 `json:"seed"`
}

// CrawlConfig describes the web-crawl traffic served by the daemon.
type CrawlConfig struct {
	// AlexaSites and NpmPackages size the two ranked collections whose
	// sites and packages (1-8 scripts each) are the request templates.
	AlexaSites  int `json:"alexa_sites"`
	NpmPackages int `json:"npm_packages"`
	// Libraries is the pool of popular library scripts; LibraryShare is
	// the chance that a script slot of a request is a library drawn
	// Zipf(LibraryZipf) from the pool instead of the site's own script.
	Libraries    int     `json:"libraries"`
	LibraryShare float64 `json:"library_share"`
	LibraryZipf  float64 `json:"library_zipf_s"`
	// DedupCapacity is the daemon's dedup LRU size for the run, smaller than
	// the distinct working set so repeats split between LRU and store.
	DedupCapacity int `json:"dedup_capacity"`
	// NominalRPS is the fixed open-loop arrival rate of the nominal phase.
	NominalRPS float64 `json:"nominal_rps"`
	// LatencyLimitMs bounds the p99 of a passing ladder step.
	LatencyLimitMs float64 `json:"latency_limit_ms"`
	// RateStepsRPS is the fixed ladder of arrival rates, ascending.
	RateStepsRPS []float64 `json:"rate_steps_rps"`
}

// MalwareConfig describes the malware-feed triage workload.
type MalwareConfig struct {
	// Scale multiplies corpus.DefaultMaliciousConfigs (DNC/Hynek/BSI).
	Scale int `json:"scale"`
	// Chunk is the number of files per ScanBatch call; Clients the number
	// of closed-loop callers.
	Chunk   int `json:"chunk"`
	Clients int `json:"clients"`
}

// BundlesConfig describes the shipped-library workload.
type BundlesConfig struct {
	Files int `json:"files"`
	// MinKB and MaxKB bound bundle sizes; sizes are log-uniform and
	// stratified so every seed gets the same size profile.
	MinKB int `json:"min_kb"`
	MaxKB int `json:"max_kb"`
	// BaseScripts is the number of corpus scripts bundles are built from.
	BaseScripts int `json:"base_scripts"`
	// Mix maps a bundle class ("plain" or a technique name) to its weight.
	Mix     map[string]float64 `json:"mix"`
	Chunk   int                `json:"chunk"`
	Clients int                `json:"clients"`
}

func loadConfig() (*Config, error) {
	var c Config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &c, nil
}
