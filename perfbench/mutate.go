package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/store"
)

// mutate-mix: a durable store opened with default settings (WAL in the
// run's scratch directory, SyncWAL off: appends reach the page cache and
// are never fsynced), bulk-loaded, then served by engine.NewStore beside
// an open-loop writer issuing insert and delete batches 1:1 at a fixed
// rate. It is the only write load: store fan-out per level, memtable and
// shadow scans, compaction builds and the compactor's point collection
// under the store's query lock all contend with serving here.
var mutateMix = struct {
	data dataSpec
	sel  float64
	mix  map[core.MixedOp]int
	// rate is the open-loop query arrivals per second, about a sixth of
	// throughput when the benchmark was introduced: small batches fan
	// out over every level too, so a quarter left the dispatcher busy.
	rate float64

	batch     int           // points per write batch
	interval  time.Duration // between write batches (inserts and deletes alternate)
	warmBatch int           // write batches issued during set-up
	checks    int           // fixed boxes checked against the journal after the run
}{
	data:      dataSpec{n: 1 << 16, d: 2, perDim: 3, spread: 0.06},
	sel:       1.0 / 1024,
	mix:       map[core.MixedOp]int{core.OpCount: 10, core.OpReport: 10},
	rate:      2500,
	batch:     16,
	interval:  75 * time.Millisecond,
	warmBatch: 512,
	checks:    256,
}

// writer issues the workload's write batches and keeps the journal the
// post-run check derives the live set from. Batch k inserts (k even) or
// deletes (k odd) batch points. Inserts copy the coordinates of a
// seed-chosen bulk point under a fresh ID. Deletes remove the point
// inserted deleteLag points earlier (bulk points, in a seed-permuted
// order, until that many exist), so no write ever fails validation and
// the live set stays at n: the store's state cycles with the flushes
// instead of drifting through the window.
type writer struct {
	st      *store.Store
	tr      *tracer
	base    []geom.Point
	delPerm []int
	seed    uint64
	k       int // batches issued
	ins     int // points inserted
	del     int // points deleted
	flushes uint64
	lat     []float64 // ms from due time (open loop) or from send (set-up)
	// flushMs is the compactor build time of each flush the writer
	// waited for, in order.
	flushMs   []float64
	buildWall time.Duration
}

func newWriter(st *store.Store, tr *tracer, base []geom.Point, seed int64) *writer {
	r := newRNG(uint64(seed) ^ 0xde1e7e)
	perm := make([]int, len(base))
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return &writer{st: st, tr: tr, base: base, delPerm: perm, seed: uint64(seed)}
}

func (w *writer) insertPoint(k int) geom.Point {
	src := w.base[mix64(w.seed^uint64(k))%uint64(len(w.base))]
	return geom.Point{ID: int32(len(w.base) + k), X: slices.Clone(src.X)}
}

// next issues the next batch. After an insert batch that fills the
// memtable it waits for that flush to finish before returning, so every
// flush takes exactly one memtable's worth and the number of flushes and
// the level layout depend only on the number of batches issued.
func (w *writer) next(parent uint64) error {
	n := mutateMix.batch
	pts := make([]geom.Point, n)
	var err error
	if w.k%2 == 0 {
		for i := range pts {
			pts[i] = w.insertPoint(w.ins + i)
		}
		w.tr.wrap("store.InsertBatch", 0, parent, func(uint64) { _, err = w.st.InsertBatch(pts) })
		w.ins += n
	} else {
		for i := range pts {
			pts[i] = w.deleted(w.del + i)
		}
		w.tr.wrap("store.DeleteBatch", 0, parent, func(uint64) { _, err = w.st.DeleteBatch(pts) })
		w.del += n
	}
	w.k++
	if err != nil {
		return err
	}
	if want := uint64(w.ins / store.DefaultMemtableCap); want > w.flushes {
		st := w.st.Stats()
		for ; st.Flushes < want; st = w.st.Stats() {
			time.Sleep(200 * time.Microsecond)
		}
		w.flushes = want
		w.flushMs = append(w.flushMs, float64(st.BuildWall-w.buildWall)/1e6)
		w.buildWall = st.BuildWall
	}
	return nil
}

// deleteLag is how many points back from the newest insert a delete
// reaches: four memtables, so tombstones land on small levels and are
// consumed by the flushes that merge them.
const deleteLag = 4 * store.DefaultMemtableCap

// deleted is the target of the k-th delete.
func (w *writer) deleted(k int) geom.Point {
	if k < deleteLag {
		return w.base[w.delPerm[k]]
	}
	return w.insertPoint(k - deleteLag)
}

// live is the journal-derived live set.
func (w *writer) live() []geom.Point {
	dead := make(map[int32]bool, w.del)
	for k := 0; k < w.del; k++ {
		dead[w.deleted(k).ID] = true
	}
	var out []geom.Point
	for _, p := range w.base {
		if !dead[p.ID] {
			out = append(out, p)
		}
	}
	for k := 0; k < w.ins; k++ {
		if p := w.insertPoint(k); !dead[p.ID] {
			out = append(out, p)
		}
	}
	return out
}

// run issues count batches at the fixed interval from start; each
// latency is timed from the batch's due time.
func (w *writer) run(start time.Time, count int) error {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for i := 0; i < count; i++ {
		due := start.Add(time.Duration(i) * mutateMix.interval)
		if d := time.Until(due); d > 50*time.Microsecond {
			timer.Reset(d)
			<-timer.C
		}
		if err := w.next(0); err != nil {
			return err
		}
		w.lat = append(w.lat, float64(time.Since(due))/1e6)
	}
	return nil
}

type storeRig struct {
	st  *store.Store
	eng *engine.Engine[struct{}]
	w   *writer
	dir string
}

func (r *storeRig) close() {
	r.eng.Close()
	r.st.Close()
	os.RemoveAll(r.dir)
}

// storeSample is the sampled store state during the window.
type storeSample struct{ levels, mem, shadow float64 }

func runMutateMix(cfg runConfig) (*outcome, error) {
	tr := cfg.tr
	spec := mutateMix
	pts := points(spec.data, cfg.seed)
	str := uniformStream(cfg.seed, spec.data.n, spec.data.d, spec.sel, spec.mix)

	var bulkTimes, setupTimes []float64
	setUp := func(i int) (*storeRig, error) {
		root := tr.begin("harness.setup", 0, 0)
		defer tr.end(root)
		dir := filepath.Join(cfg.dir, fmt.Sprintf("store-%d", i))
		st, err := store.Open(dir, store.Config{Dims: spec.data.d})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		tr.wrap("store.BulkLoad", 0, root.ID, func(uint64) { _, err = st.BulkLoad(core.SliceChunks(pts, 4096)) })
		if err != nil {
			st.Close()
			return nil, err
		}
		bulkTimes = append(bulkTimes, time.Since(t0).Seconds())
		w := newWriter(st, tr, pts, cfg.seed)
		warm := tr.begin("harness.warm", 0, root.ID)
		for k := 0; k < spec.warmBatch; k++ {
			if err := w.next(warm.ID); err != nil {
				st.Close()
				return nil, err
			}
		}
		tr.end(warm)
		eng := engine.NewStore(st, engine.Config{})
		warmQueries(warmEngineQ, warmFirst, engineDo(eng, str, nil, func(struct{}) float64 { return 0 }))
		return &storeRig{st: st, eng: eng, w: w, dir: dir}, nil
	}
	var rig *storeRig
	for i := 0; i < setups; i++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = setUp(i); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer rig.close()
	heapSetup := settledHeapMB()
	s0 := rig.st.Stats()
	logf("setup: %v s (bulk load %v s); window starts with %d levels, %d flushes, %d folds, memtable %d, shadow %d",
		roundAll(setupTimes), roundAll(bulkTimes), s0.Levels, s0.Flushes, s0.Compactions, s0.Memtable, s0.Shadow)
	logf("set-up flush builds (ms, flush 1 first): %v", roundAll(rig.w.flushMs))

	// The writer runs across the whole window at a fixed rate; a sampler
	// reads the store's state every 50 ms.
	writes := int(cfg.seconds * float64(time.Second) / float64(spec.interval))
	wrote := make(chan error, 1)
	stop := make(chan struct{})
	sampled := make(chan []storeSample, 1)
	start := time.Now()
	go func() { wrote <- rig.w.run(start, writes) }()
	go func() {
		var out []storeSample
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- out
				return
			case <-tick.C:
				s := rig.st.Stats()
				out = append(out, storeSample{float64(s.Levels), float64(s.Memtable), float64(s.Shadow)})
			}
		}
	}()
	var next atomic.Int64
	do := engineDo(rig.eng, str, tr, func(struct{}) float64 { return 0 })
	ph := runPhases(cfg, spec.rate, &next, rig.eng.Stats, do)
	if err := <-wrote; err != nil {
		return nil, fmt.Errorf("writer: %w", err)
	}
	close(stop)
	samples := <-sampled
	windowWall := time.Since(start)
	s1 := rig.st.Stats()
	flushes, folds := s1.Flushes-s0.Flushes, s1.Compactions-s0.Compactions
	logf("window flush builds (ms): %v", roundAll(rig.w.flushMs[s0.Flushes:]))
	logf("window: %d write batches (%d inserts, %d deletes in all) in %v: %d flushes, %d folds, build wall %v",
		writes, rig.w.ins, rig.w.del, windowWall.Round(time.Millisecond), flushes, folds,
		(s1.BuildWall - s0.BuildWall).Round(time.Millisecond))
	// Exact-count check: with the writer's flush gating the window holds
	// writes/2 insert batches and so a fixed number of flushes.
	wantFlushes := uint64(rig.w.ins/store.DefaultMemtableCap) - s0.Flushes
	if flushes != wantFlushes || folds != 0 {
		return nil, fmt.Errorf("window held %d flushes and %d folds, want exactly %d and 0", flushes, folds, wantFlushes)
	}

	// Traced runs replay fixed batches on a version pinned at the end of
	// the window, before quiescing.
	var mixedMs, openMixedMs []float64
	if tr != nil {
		kOpen := ph.openOccupancy()
		v := rig.st.Pin()
		root := tr.begin("harness.replay", 0, 0)
		for _, r := range []struct {
			k   int
			out *[]float64
		}{{engine.DefaultBatchSize, &mixedMs}, {kOpen, &openMixedMs}} {
			for bi := 0; bi < 24; bi++ {
				ops, boxes, _ := fixedBatch(str, replayFirst, bi, r.k)
				s := tr.begin("store.Mixed", 0, root.ID)
				t0 := time.Now()
				_, err := store.Mixed[struct{}](v, ops, boxes)
				*r.out = append(*r.out, float64(time.Since(t0))/1e6)
				tr.end(s)
				if err != nil {
					v.Release()
					return nil, err
				}
			}
		}
		tr.end(root)
		v.Release()
	}

	// Quiesce, then check a fixed box set against the journal's live set.
	tr.wrap("store.Compact", 0, 0, func(uint64) { rig.st.Compact() })
	o := newOracle(rig.w.live(), spec.data.n)
	var checks []answer
	for i := 0; i < spec.checks; i++ {
		checks = append(checks, do(replayFirst+int64(i), 0))
	}
	bad := checkAll(o, checks, str.at)
	inRun := ph.failures
	logf("check: %d answers checked in-box during the run (%d bad), %d post-run boxes against internal/brute on the journal's live set (%d wrong)",
		ph.attempted, inRun, len(checks), bad)
	out := &outcome{attempted: ph.attempted + len(checks), failed: inRun + bad}
	ph.summarize()
	layers := ph.readouts(heapSetup, settledHeapMB(), 0)
	if tr == nil {
		var err error
		out.endToEnd, err = ph.endToEnd(median(setupTimes), heapSetup)
		return out, err
	}

	layers = append(layers, ph.engineLayer(rig.eng.Stats(), 0)...)
	layers = append(layers,
		metric{"core.build_s", "s", 0},
		metric{"core.warm_s", "s", median(setupTimes) - median(bulkTimes)})
	// Level trees sit behind the store's versions, so the core and cgm
	// replays have nothing to read here: those metrics read 0.
	layers = append(layers, treeLayers(replayStats{}, replayStats{}, ph.open50.Value-median(openMixedMs), 0, 0)...)
	var lv, mem, sh []float64
	for _, s := range samples {
		lv, mem, sh = append(lv, s.levels), append(mem, s.mem), append(sh, s.shadow)
	}
	wl := slices.Clone(rig.w.lat)
	layers = append(layers, storeLayer(&storeWindow{
		bulkS: median(bulkTimes), levels: mean(lv), mem: mean(mem), shadow: mean(sh),
		mixedP50: median(mixedMs), flushes: float64(flushes), folds: float64(folds),
		buildFrac:  (s1.BuildWall - s0.BuildWall).Seconds() / windowWall.Seconds(),
		maxBuildMs: slices.Max(append([]float64{0}, rig.w.flushMs[s0.Flushes:]...)),
		writeP50:   percentile(wl, 0.5).Value, writeP99: percentile(wl, 0.99).Value,
	})...)
	layers = append(layers, metric{"harness.trace_overhead_frac", "ratio",
		1 - float64(ph.thr.completed())/ph.thr.wall.Seconds()/ph.untracedQPS})
	out.perLayer = append(layers, spanLayer(tr)...)
	return out, nil
}

// storeWindow is the store's per-layer readout over the window.
type storeWindow struct {
	bulkS, levels, mem, shadow, mixedP50  float64
	flushes, folds, buildFrac, maxBuildMs float64
	writeP50, writeP99                    float64
}

// storeLayer returns the store metrics; nil (the serving workloads, which
// have no store) reads 0 throughout.
func storeLayer(w *storeWindow) []metric {
	if w == nil {
		w = &storeWindow{}
	}
	return []metric{
		{"store.bulkload_s", "s", w.bulkS},
		{"store.levels", "count", w.levels},
		{"store.memtable_len", "count", w.mem},
		{"store.shadow_len", "count", w.shadow},
		{"store.mixed_ms.p50", "ms", w.mixedP50},
		{"store.flushes", "count", w.flushes},
		{"store.folds", "count", w.folds},
		{"store.build_frac", "ratio", w.buildFrac},
		{"store.max_build_ms", "ms", w.maxBuildMs},
		{"store.write_ms.p50", "ms", w.writeP50},
		{"store.write_ms.p99", "ms", w.writeP99},
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
