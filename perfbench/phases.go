package main

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
)

// Load shape shared by every workload.
const (
	setups = 3 // set-ups per run; setup_s is their median
	// throughputClients keeps two full batches outstanding, so every
	// dispatched batch is full and the next one is already waiting.
	throughputClients = 2 * engine.DefaultBatchSize
	// openWorkers bounds the open loop's in-flight queries; it is far
	// above what the engine can batch, so queueing shows as latency.
	openWorkers = 512
)

// Shares of -seconds given to each load phase.
const (
	throughputShare = 0.4
	loneShare       = 0.2
	openShare       = 0.4
)

// rounds interleaves the phases: the window runs throughput, lone and
// open-loop segments this many times over, so a transient disturbance
// on the shared host, or the store's state cycling through its flushes,
// touches every metric a little instead of one metric entirely.
const rounds = 15

// phases is the measured window: closed-loop throughput, closed-loop
// lone-query latency and one open-loop Poisson rate, each merged over
// its segments.
type phases struct {
	thr, lone, open phaseResult
	thrRates        []float64    // per throughput segment, 1/s
	loneP50s        []float64    // per lone segment, ms
	openEng         engine.Stats // engine counter deltas over the open-loop segments
	rt0, rt1        rtSample
	host0, host1    hostSample
	untracedQPS     float64 // traced runs: a short untraced closed loop first
	// Percentiles, filled by summarize.
	lone50, open50, open90, open99, lag99 quantile
	window                                time.Duration
	attempted, failures                   int
}

// runPhases drives the load phases against do. In traced runs a short
// untraced closed loop first gives the tracing overhead.
func runPhases(cfg runConfig, rate float64, next *atomic.Int64, stats func() engine.Stats, do doFunc) *phases {
	S := time.Duration(cfg.seconds * float64(time.Second))
	seg := func(share float64) time.Duration { return time.Duration(share * float64(S) / rounds) }
	ph := &phases{}
	if cfg.tr != nil {
		r := closedLoop(throughputClients, S/10, next, nil, do)
		ph.untracedQPS = float64(r.completed()) / r.wall.Seconds()
		ph.thr.answers = r.answers // still checked
	}
	sched := poissonSchedule(cfg.seed, rate, openShare*cfg.seconds)
	ph.rt0, ph.host0 = readRuntime(), readHost()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		t := closedLoop(throughputClients, seg(throughputShare), next, cfg.tr, do)
		ph.thrRates = append(ph.thrRates, float64(t.completed())/t.wall.Seconds())
		ph.thr.add(t)
		l := closedLoop(1, seg(loneShare), next, cfg.tr, do)
		ph.loneP50s = append(ph.loneP50s, median(slices.Clone(l.lat)))
		ph.lone.add(l)
		// This segment's share of the one Poisson schedule, re-based.
		lo, hi := int64(r)*int64(seg(openShare)), int64(r+1)*int64(seg(openShare))
		var part []int64
		for _, due := range sched {
			if due >= lo && due < hi {
				part = append(part, due-lo)
			}
		}
		a := stats()
		ph.open.add(openLoop(part, openWorkers, next, cfg.tr, do))
		b := stats()
		ph.openEng.Batches += b.Batches - a.Batches
		ph.openEng.BatchedQueries += b.BatchedQueries - a.BatchedQueries
		ph.openEng.DeadlineFlushes += b.DeadlineFlushes - a.DeadlineFlushes
	}
	ph.window = time.Since(start)
	ph.rt1, ph.host1 = readRuntime(), readHost()
	for _, p := range []*phaseResult{&ph.thr, &ph.lone, &ph.open} {
		ph.attempted += len(p.answers)
		ph.failures += p.failed()
	}
	logf("per segment: throughput %v 1/s, lone p50 %v ms; other-process CPU thr %v lone %v open %v",
		roundAll(ph.thrRates), roundAll(ph.loneP50s), roundAll(ph.thr.hosts), roundAll(ph.lone.hosts), roundAll(ph.open.hosts))
	logf("phases: throughput %d q, lone %d q, open %d q at %.0f/s, in %d rounds; window %v",
		ph.thr.completed(), ph.lone.completed(), ph.open.completed(), rate, rounds, ph.window.Round(time.Millisecond))
	return ph
}

// openOccupancy is the mean batch size the engine dispatched during the
// open-loop segments, rounded to a whole batch.
func (ph *phases) openOccupancy() int {
	if ph.openEng.Batches == 0 {
		return 1
	}
	return max(1, int(float64(ph.openEng.BatchedQueries)/float64(ph.openEng.Batches)+0.5))
}

// queries completed in the measured window.
func (ph *phases) queries() int {
	return ph.thr.completed() + ph.lone.completed() + ph.open.completed()
}

// endToEnd derives the end-to-end metrics from the measured phases.
func (ph *phases) endToEnd(setupS, heapMB float64) ([]metric, error) {
	for _, q := range []struct {
		p    quantile
		what string
	}{{ph.lone50, "lone_query_p50_ms"}, {ph.open50, "query_p50_ms"}} {
		if !q.p.OK() {
			return nil, fmt.Errorf("%s: %v: fewer than %d samples beyond the percentile", q.what, q.p, minBeyond)
		}
	}
	return []metric{
		{"setup_s", "s", setupS},
		{"heap_mb", "MB", heapMB},
		{"throughput_qps", "1/s", median(slices.Clone(ph.thrRates))},
		{"lone_query_p50_ms", "ms", ph.lone50.Value},
		{"query_p50_ms", "ms", ph.open50.Value},
	}, nil
}

// summarize computes every percentile the run reports and then releases
// the raw samples and the (checked) answers, so the heap measured after
// the window holds the program's state, not the harness's records.
func (ph *phases) summarize() {
	ph.lone50 = percentile(ph.lone.lat, 0.5)
	ph.open50 = percentile(ph.open.lat, 0.5)
	ph.open90 = percentile(ph.open.lat, 0.9)
	ph.open99 = percentile(ph.open.lat, 0.99)
	ph.lag99 = percentile(ph.open.lag, 0.99)
	for _, p := range []*phaseResult{&ph.thr, &ph.lone, &ph.open} {
		p.answers, p.lat, p.lag = nil, nil, nil
	}
}

// readouts prints the warm-state and validity readouts every run
// reports, and returns the per-layer ones shared by every workload.
func (ph *phases) readouts(heapSetup, heapAfter float64, coldPerBatch float64) []metric {
	lag, p90, p99 := ph.lag99, ph.open90, ph.open99
	host := otherBusy(ph.host0, ph.host1)
	growth := (heapAfter - heapSetup) / heapSetup
	q := float64(ph.queries())
	gcs := float64(ph.rt1.gcs - ph.rt0.gcs)
	gcFrac := 0.0
	if cpu := ph.rt1.cpu - ph.rt0.cpu; cpu > 0 {
		gcFrac = (ph.rt1.gcCPU - ph.rt0.gcCPU) / cpu
	}
	logf("readout: cold_installs_per_batch=%.4g heap_setup_mb=%.1f heap_after_mb=%.1f heap_growth_frac=%+.4f",
		coldPerBatch, heapSetup, heapAfter, growth)
	logf("readout: harness.gen_lag_ms %v; harness.host_busy_frac=%.4f", lag, host)
	logf("readout: open-loop latency %v, %v", p90, p99)
	logf("readout: runtime alloc=%.1fKB/query gc_cycles=%.0f gc_cpu_frac=%.4f",
		float64(ph.rt1.alloc-ph.rt0.alloc)/1024/q, gcs, gcFrac)
	return []metric{
		{"harness.heap_growth_frac", "ratio", growth},
		{"harness.window_cold_installs_per_batch", "count", coldPerBatch},
		{"harness.gen_lag_ms.p99", "ms", lag.Value},
		{"harness.host_busy_frac", "ratio", host},
		{"runtime.alloc_kb_per_query", "KB", float64(ph.rt1.alloc-ph.rt0.alloc) / 1024 / q},
		{"runtime.gc_cycles", "count", gcs},
		{"runtime.gc_cpu_frac", "ratio", gcFrac},
		// Open-loop tails are printed with their support and not gated:
		// across runs they move more than the medians do (README.md).
		{"tail.query_p90_ms", "ms", p90.Value},
		{"tail.query_p99_ms", "ms", p99.Value},
		{"tail.query_samples", "count", float64(p99.N)},
	}
}

// engineLayer is the engine's per-layer metrics: occupancy and deadline
// flushes over the open-loop phase (the closed loops pin occupancy at
// BatchSize and 1 by construction), cache hits over the whole window.
func (ph *phases) engineLayer(total engine.Stats, dedup float64) []metric {
	batches := float64(ph.openEng.Batches)
	occ, deadline := 0.0, 0.0
	if batches > 0 {
		occ = float64(ph.openEng.BatchedQueries) / batches
		deadline = float64(ph.openEng.DeadlineFlushes) / batches
	}
	hit := 0.0
	if total.Submitted > 0 {
		hit = float64(total.CacheHits) / float64(total.Submitted)
	}
	return []metric{
		{"engine.batch_occupancy", "count", occ},
		{"engine.deadline_flush_frac", "ratio", deadline},
		{"engine.cache_hit_frac", "ratio", hit},
		{"engine.dedup_frac", "ratio", dedup},
	}
}

// warmQueries runs a fixed number of queries through do with the
// throughput loop's concurrency (engine warm-up: goroutines, buffers and,
// on pooled streams, the answer cache).
func warmQueries(count int, first int64, do doFunc) {
	var next atomic.Int64
	next.Store(first)
	done := make(chan struct{})
	for c := 0; c < throughputClients; c++ {
		go func() {
			for {
				idx := next.Add(1) - 1
				if idx >= first+int64(count) {
					done <- struct{}{}
					return
				}
				do(idx, 0)
			}
		}()
	}
	for c := 0; c < throughputClients; c++ {
		<-done
	}
}

// dedupBatch drops repeated (op, box) queries from a batch the way the
// engine does before dispatch and reports how many it dropped.
func dedupBatch(ops []core.MixedOp, boxes []geom.Box) ([]core.MixedOp, []geom.Box, int) {
	seen := map[string]bool{}
	var uo []core.MixedOp
	var ub []geom.Box
	for i, b := range boxes {
		k := fmt.Sprint(ops[i], b.Lo, b.Hi)
		if seen[k] {
			continue
		}
		seen[k] = true
		uo = append(uo, ops[i])
		ub = append(ub, b)
	}
	return uo, ub, len(boxes) - len(ub)
}
