package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one request of a load phase. Times are offsets from the phase
// start: Sched is when the request was due, Sent when a connection actually
// sent it, Done when its answer arrived.
type Record struct {
	Sched, Sent, Done time.Duration
	Failed            bool
	// ScanNs is the server-side scan time the response reported.
	ScanNs int64
	Files  int
}

// LatencyMs is the request's latency from its scheduled send time, so a
// stall charges every request that queued behind it.
func (r Record) LatencyMs() float64 { return float64(r.Done-r.Sched) / 1e6 }

// LateMs is how late the generator sent the request.
func (r Record) LateMs() float64 { return float64(r.Sent-r.Sched) / 1e6 }

// poissonSchedule returns seeded Poisson arrival offsets at rate per second
// covering the first d of a phase.
func poissonSchedule(r *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// openLoop sends request k at sched[k] over conns connections, whatever
// happened to earlier requests: a connection takes the next due request as
// soon as it is free, so when every connection is busy requests queue in
// the generator and their lateness counts in their latency. do performs
// request k and reports the server scan time, file count and failure.
func openLoop(sched []time.Duration, conns int, do func(k int) (scanNs int64, files int, failed bool)) []Record {
	recs := make([]Record, len(sched))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(sched) {
					return
				}
				if wait := sched[k] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				rec := Record{Sched: sched[k], Sent: time.Since(start)}
				rec.ScanNs, rec.Files, rec.Failed = do(k)
				rec.Done = time.Since(start)
				recs[k] = rec
			}
		}()
	}
	wg.Wait()
	return recs
}

// checkpoint marks the moment a closed loop completed a whole number of
// windows: the time since the loop started, the process CPU time so far,
// and the files completed so far.
type checkpoint struct {
	At    time.Duration
	CPU   time.Duration
	Files int
}

// closedLoop runs clients callers that each issue the next request as soon
// as their previous one completes, until d has elapsed and at least one
// window has completed. It returns the
// records of every request issued, a checkpoint at the start and after
// every window of `every` completed requests, and the wall time until the
// last request completed.
func closedLoop(clients int, d time.Duration, every int, do func(k int) (scanNs int64, files int, failed bool)) ([]Record, []checkpoint, time.Duration) {
	var mu sync.Mutex
	var recs []Record
	files := 0
	cps := []checkpoint{{CPU: cpuTime()}}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d || next.Load() < int64(every) {
				k := int(next.Add(1) - 1)
				rec := Record{Sent: time.Since(start)}
				rec.Sched = rec.Sent
				rec.ScanNs, rec.Files, rec.Failed = do(k)
				rec.Done = time.Since(start)
				mu.Lock()
				recs = append(recs, rec)
				files += rec.Files
				if len(recs)%every == 0 {
					cps = append(cps, checkpoint{At: rec.Done, CPU: cpuTime(), Files: files})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, cps, time.Since(start)
}

// windowRates returns, for each window between consecutive checkpoints, the
// files completed per second and the process CPU milliseconds per file.
func windowRates(cps []checkpoint) (filesPerS, cpuMsPerFile []float64) {
	for i := 1; i < len(cps); i++ {
		files := float64(cps[i].Files - cps[i-1].Files)
		wall := (cps[i].At - cps[i-1].At).Seconds()
		if files == 0 || wall <= 0 {
			continue
		}
		filesPerS = append(filesPerS, files/wall)
		cpuMsPerFile = append(cpuMsPerFile, float64(cps[i].CPU-cps[i-1].CPU)/1e6/files)
	}
	return filesPerS, cpuMsPerFile
}

// passStat is one pass of a pass loop: its records, with times from the
// pass's start, its wall and process CPU time, and the files it completed.
type passStat struct {
	Recs  []Record
	Wall  time.Duration
	CPU   time.Duration
	Files int
}

// passLoop runs whole passes over requests 0..n-1, one pass after another,
// each with clients callers taking the next request as soon as their previous
// one returns. A pass ends when its last request returns, so every pass does
// exactly the same work. It starts another pass while that pass, taking as
// long as the previous one, would end within d, and always runs at least
// one. It returns the passes and the wall time of the loop.
func passLoop(clients int, d time.Duration, n int, do func(k int) (scanNs int64, files int, failed bool)) ([]passStat, time.Duration) {
	var passes []passStat
	start := time.Now()
	for last := time.Duration(0); len(passes) == 0 || time.Since(start)+last <= d; {
		t0, c0 := time.Now(), cpuTime()
		p := passStat{Recs: fixedLoop(clients, n, do)}
		p.Wall, p.CPU = time.Since(t0), cpuTime()-c0
		for _, r := range p.Recs {
			p.Files += r.Files
		}
		passes = append(passes, p)
		last = p.Wall
	}
	return passes, time.Since(start)
}

// fixedLoop issues requests 0..n-1 from clients closed-loop callers and
// returns their records.
func fixedLoop(clients, n int, do func(k int) (scanNs int64, files int, failed bool)) []Record {
	recs := make([]Record, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				rec := Record{Sent: time.Since(start)}
				rec.Sched = rec.Sent
				rec.ScanNs, rec.Files, rec.Failed = do(k)
				rec.Done = time.Since(start)
				recs[k] = rec
			}
		}()
	}
	wg.Wait()
	return recs
}

// backlogAt counts requests due by t that had not completed by t.
func backlogAt(recs []Record, t time.Duration) int {
	n := 0
	for _, r := range recs {
		if r.Sched <= t && r.Done > t {
			n++
		}
	}
	return n
}
