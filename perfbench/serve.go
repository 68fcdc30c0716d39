package main

import (
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/semigroup"
	"repro/internal/transport"
	"repro/internal/workload"
)

// serve-local: an immutable tree built with core.Build on the default
// in-process machine, served by engine.WithAggregate with the default
// configuration. Engine batching and its deadline plus phase A/B/C
// compute do nearly all the work; no byte passes through wire or
// transport. n is sized so the heap after set-up is a few hundred MB:
// collections are then many and short and average out within a run.
var serveLocal = serveSpec{
	data: dataSpec{n: 1 << 15, d: 2, perDim: 3, spread: 0.06},
	sel:  1.0 / 2048,
	mix:  map[core.MixedOp]int{core.OpCount: 12, core.OpReport: 5, core.OpAggregate: 3},
	// About a quarter of the closed-loop throughput when the benchmark
	// was introduced (README.md); frozen so later changes are measured at
	// the same offered load.
	rate: 13000,
}

// serve-cluster-skew: 4 TCP workers inside the process behind a resident
// cluster, queried from a finite pool of boxes around Zipf-weighted foci.
// Phase-B skew copies, the raw wire codec, TCP frames and resident steps
// do most of the work; the pool is larger than the engine's answer cache,
// so the cache and in-batch dedup hit only partly.
var serveClusterSkew = serveSpec{
	data: dataSpec{n: 1 << 15, d: 2, perDim: 3, spread: 0.06},
	skew: &skewSpec{d: 2, sel: 1.0 / 512, foci: 16, theta: 1.2, poolSize: 4096},
	// Far below a quarter of throughput: a batch of a few queries costs
	// nearly as much as a full one over TCP, so at a quarter the single
	// dispatcher never idles and the loop measures its queue, not the
	// query. Frozen like the other rates.
	rate: 100,
}

// serveSpec is a serving workload over an immutable tree.
type serveSpec struct {
	data dataSpec
	sel  float64
	mix  map[core.MixedOp]int
	skew *skewSpec
	rate float64 // open-loop arrivals per second
}

// Warm-up length: passes of fresh full batches replayed directly, then
// a fixed number of queries through the engine.
const (
	warmPassCount   = 4
	warmPassBatches = 32
	warmEngineQ     = 4096
	// Stream index regions: measured queries count up from 0; warm-up and
	// replays draw from regions no run reaches.
	warmFirst   = int64(1) << 40
	replayFirst = int64(1) << 41
)

func (s serveSpec) stream(seed int64) *stream {
	if s.skew != nil {
		sk := *s.skew
		sk.n = s.data.n
		return skewStream(sk, seed)
	}
	return uniformStream(seed, s.data.n, s.data.d, s.sel, s.mix)
}

func runServeLocal(cfg runConfig) (*outcome, error) {
	build := func(tr *tracer, parent uint64, pts []geom.Point) (*treeRig, func(), error) {
		mach := cgm.New(cgm.Config{P: 4})
		var tree *core.Tree
		tr.wrap("core.Build", 0, parent, func(uint64) { tree = core.Build(mach, pts) })
		var h *core.AggHandle[float64]
		tr.wrap("core.PrepareAssociative", 0, parent, func(uint64) {
			h = core.PrepareAssociative(tree, semigroup.FloatSum(), workload.WeightOf)
		})
		return &treeRig{tree: tree, h: h}, func() { mach.Close() }, nil
	}
	return runServe(cfg, serveLocal, build)
}

func runServeClusterSkew(cfg runConfig) (*outcome, error) {
	const p = 4
	addrs := make([]string, p)
	for i := range addrs {
		w, err := transport.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("starting worker %d: %w", i, err)
		}
		defer w.Close()
		addrs[i] = w.Addr()
	}
	cl, err := transport.DialCluster(addrs, cgm.Config{Resident: true})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	build := func(tr *tracer, parent uint64, pts []geom.Point) (*treeRig, func(), error) {
		var tree *core.Tree
		var err error
		tr.wrap("core.BuildOn", 0, parent, func(uint64) { tree, err = core.BuildOn(cl, pts, core.BackendLayered) })
		if err != nil {
			return nil, nil, err
		}
		return &treeRig{tree: tree, cl: cl}, func() { tree.Machine().Close() }, nil
	}
	return runServe(cfg, serveClusterSkew, build)
}

// engineDo issues stream queries through an engine inside engine.* spans.
func engineDo[T any](eng *engine.Engine[T], str *stream, tr *tracer, agg func(T) float64) doFunc {
	return func(idx int64, trace uint64) answer {
		op, b := str.at(idx)
		a := answer{idx: idx}
		var err error
		switch op {
		case core.OpCount:
			s := tr.begin("engine.Count", trace, 0)
			a.count, err = eng.Count(b)
			tr.end(s)
		case core.OpAggregate:
			s := tr.begin("engine.Aggregate", trace, 0)
			var v T
			v, err = eng.Aggregate(b)
			tr.end(s)
			a.agg = agg(v)
		default:
			s := tr.begin("engine.Report", trace, 0)
			var pts []geom.Point
			pts, err = eng.Report(b)
			tr.end(s)
			a.count, a.hash = int64(len(pts)), idHash(pts)
			for _, p := range pts {
				if !b.Contains(p) {
					a.failed = true // checked as it arrives: mutate-mix has no oracle mid-run
				}
			}
		}
		a.failed = a.failed || err != nil
		return a
	}
}

// served is one completed set-up: the tree, its engine and their closer.
type served struct {
	rig   *treeRig
	eng   *engine.Engine[float64]
	close func()
	cold  []float64 // cold installs per batch of each warm pass
	build time.Duration
}

// runServe is the common body of the two serving workloads.
func runServe(cfg runConfig, spec serveSpec, build func(*tracer, uint64, []geom.Point) (*treeRig, func(), error)) (*outcome, error) {
	tr := cfg.tr
	pts := points(spec.data, cfg.seed)
	str := spec.stream(cfg.seed)

	setUp := func() (*served, error) {
		root := tr.begin("harness.setup", 0, 0)
		defer tr.end(root)
		t0 := time.Now()
		rig, closeTree, err := build(tr, root.ID, pts)
		if err != nil {
			return nil, err
		}
		buildTime := time.Since(t0)
		warm := tr.begin("harness.warm", 0, root.ID)
		cold := rig.warmPasses(tr, warm.ID, str, warmFirst, warmPassCount, warmPassBatches)
		tr.end(warm)
		eng := engine.WithAggregate(rig.tree, rig.h, engine.Config{})
		warmQueries(warmEngineQ, warmFirst+1<<30,
			engineDo(eng, str, nil, func(v float64) float64 { return v }))
		return &served{rig: rig, eng: eng, cold: cold, build: buildTime, close: func() { eng.Close(); closeTree() }}, nil
	}

	// Set up several times and report the median; the last one serves.
	var sv *served
	var setupTimes, buildTimes []float64
	for i := 0; i < setups; i++ {
		if sv != nil {
			sv.close()
			sv = nil
		}
		t0 := time.Now()
		var err error
		if sv, err = setUp(); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		buildTimes = append(buildTimes, sv.build.Seconds())
	}
	defer sv.close()
	logf("setup: %v s (build %v s); warm-pass cold installs per batch %v",
		roundAll(setupTimes), roundAll(buildTimes), sv.cold)
	heapSetup := settledHeapMB()

	mach := sv.rig.tree.Machine()
	round0 := len(mach.Metrics().Rounds)
	st0 := sv.eng.Stats()
	var next atomic.Int64
	do := engineDo(sv.eng, str, tr, func(v float64) float64 { return v })
	ph := runPhases(cfg, spec.rate, &next, sv.eng.Stats, do)
	st1 := sv.eng.Stats()
	m1 := mach.Metrics()
	coldWindow := (float64(copyRoundElems(m1, round0)) -
		float64(st1.CopyCacheHits-st0.CopyCacheHits)) / float64(st1.Batches-st0.Batches)
	// The machine keeps a RoundStat per superstep for its whole life: the
	// one part of the program's heap that grows with queries served.
	grown := len(m1.Rounds) - round0
	logf("readout: the machine's round log grew by %d rounds (%.1f MB of RoundStat) over the window",
		grown, float64(grown)*float64(unsafe.Sizeof(cgm.RoundStat{}))/(1<<20))

	// Correctness: every answer of every phase against the oracle.
	o := newOracle(pts, spec.data.n)
	var all []answer
	for _, p := range []*phaseResult{&ph.thr, &ph.lone, &ph.open} {
		all = append(all, p.answers...)
	}
	t0 := time.Now()
	bad := checkAll(o, all, str.at)
	logf("check: %d answers against internal/brute in %v: %d wrong (%d failed calls)", len(all),
		time.Since(t0).Round(time.Millisecond), bad, ph.failures)
	out := &outcome{attempted: len(all), failed: bad}
	ph.summarize()
	layers := ph.readouts(heapSetup, settledHeapMB(), coldWindow)
	if tr == nil {
		var err error
		out.endToEnd, err = ph.endToEnd(median(setupTimes), heapSetup)
		return out, err
	}

	// Traced run: replay fixed batches with the engine idle.
	kOpen := ph.openOccupancy()
	full := sv.rig.replay(tr, str, replayFirst, 24, engine.DefaultBatchSize)
	open := sv.rig.replay(tr, str, replayFirst+1<<20, 24, kOpen)
	one := sv.rig.replay(tr, str, replayFirst+2<<20, 48, 1)
	encRate, decRate := 0.0, 0.0
	if full.encBytes > 0 {
		encRate, decRate = codecRates(tr, pts, 200)
	}
	layers = append(layers, ph.engineLayer(sv.eng.Stats(), full.dedup)...)
	layers = append(layers,
		metric{"core.build_s", "s", median(buildTimes)},
		metric{"core.warm_s", "s", median(setupTimes) - median(buildTimes)})
	queueWait := ph.open50.Value - median(open.wallMs)
	layers = append(layers, treeLayers(full, one, queueWait, encRate, decRate)...)
	layers = append(layers, storeLayer(nil)...)
	layers = append(layers, metric{"harness.trace_overhead_frac", "ratio",
		1 - float64(ph.thr.completed())/ph.thr.wall.Seconds()/ph.untracedQPS})
	out.perLayer = append(layers, spanLayer(tr)...)
	return out, nil
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*1000+0.5)) / 1000
	}
	return out
}
