package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pointsfile"
	"repro/internal/transport"
	"repro/internal/workload"
)

// IngestLoadRecord measures one worker-direct file load: each rank reads
// its own shard, the coordinator sees header metadata, splitters and
// control frames only.
type IngestLoadRecord struct {
	N            int     `json:"n"`
	BuildMs      float64 `json:"build_ms"`
	PointsPerSec float64 `json:"points_per_sec"`
	// CoordBytes is the coordinator's total wire traffic (both
	// directions) for the whole load+construct. Under the O(p²) claim it
	// is independent of N at fixed p — doubling N must not move it.
	CoordBytes         int64   `json:"coord_bytes"`
	CoordBytesPerPoint float64 `json:"coord_bytes_per_point"`
}

// IngestStreamRecord measures the rank-parallel streaming client: p
// independent direct feeds with windowed in-flight chunks. The rate is
// the STAGING rate — producer through last acknowledgement — not
// build-inclusive, since the held construct after staging does not
// depend on how the input arrived.
type IngestStreamRecord struct {
	N                  int     `json:"n"`
	Chunk              int     `json:"chunk"`
	Window             int     `json:"window"`
	ParallelStageMs    float64 `json:"parallel_stage_ms"`
	ParallelPtsPerSec  float64 `json:"parallel_points_per_sec"`
	ParallelFeedCalls  int64   `json:"parallel_feed_calls"`
	ParallelFeedPoints int64   `json:"parallel_feed_points"`
}

// IngestServeRecord is one row of the QoS sweep: a rank-parallel
// streaming load at one MaxShare setting with an open-loop probe
// running for the whole of the load. Samples are split by load phase,
// because MaxShare governs ingest STAGING: DuringP50Us is serve latency
// while the governed feeds are staging (the latency the QoS knob
// controls), BuildP50Us while the ungoverned level construct runs.
type IngestServeRecord struct {
	Share        float64 `json:"share"` // 0 = uncapped
	IngestMs     float64 `json:"ingest_ms"`
	StageMs      float64 `json:"stage_ms"`
	PointsPerSec float64 `json:"stage_points_per_sec"`
	DuringP50Us  float64 `json:"serve_during_p50_us"`
	DuringP99Us  float64 `json:"serve_during_p99_us"`
	QueriesStage int     `json:"queries_during_stage"`
	BuildP50Us   float64 `json:"serve_build_p50_us"`
	BuildP99Us   float64 `json:"serve_build_p99_us"`
	QueriesBuild int     `json:"queries_during_build"`
	// ThrottleWaits is the worker-side governor's sleep count for this
	// load (delta summed over workers); zero on the uncapped row.
	ThrottleWaits int64 `json:"throttle_waits"`
}

// IngestRecord is the machine-readable record of the ingest benchmark
// (BENCH_ingest.json).
type IngestRecord struct {
	Experiment string `json:"experiment"`
	Dims       int    `json:"dims"`
	P          int    `json:"p"`
	// Loads holds the worker-direct file loads at N and 2N; CoordGrowthX
	// is CoordBytes(2N)/CoordBytes(N) — ≈1 when coordinator traffic is
	// O(p²), 2 if the coordinator were shipping the points.
	Loads        []IngestLoadRecord `json:"loads"`
	CoordGrowthX float64            `json:"coord_growth_x"`
	Stream       IngestStreamRecord `json:"stream"`
	// Serve latency baseline (no load running, same open-loop probe) and
	// the QoS sweep rows. ProbeIntervalUs is calibrated to ~4x the idle
	// closed-loop service time so the open-loop schedule is feasible when
	// the cluster is healthy — backlog then measures load-induced stalls,
	// not a probe rate the host could never sustain.
	ProbeIntervalUs float64             `json:"probe_interval_us"`
	IdleP50Us       float64             `json:"serve_idle_p50_us"`
	IdleP99Us       float64             `json:"serve_idle_p99_us"`
	QueriesIdle     int                 `json:"queries_idle"`
	Serve           []IngestServeRecord `json:"serve"`
}

// usQuantile reads a latency quantile in microseconds from a
// nanosecond-valued obs histogram snapshot.
func usQuantile(s obs.HistSnapshot, q float64) float64 {
	return s.Quantile(q) / 1e3
}

// runIngestBench measures worker-direct ingest on a p-worker resident
// localhost cluster.
func runIngestBench(n, p int) (*IngestRecord, error) {
	rec := &IngestRecord{Experiment: "ingest", Dims: 2, P: p}
	workers := make([]*transport.Worker, p)
	addrs := make([]string, p)
	for i := range workers {
		w, err := transport.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer w.Close()
		workers[i] = w
		addrs[i] = w.Addr()
	}
	reg := obs.NewRegistry()
	cl, err := transport.DialCluster(addrs, cgm.Config{Resident: true, Obs: reg})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	dir, err := os.MkdirTemp("", "rangebench-ingest")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Worker-direct file loads at N and 2N: the doubling probe for the
	// O(p²) coordinator-traffic claim.
	for _, nn := range []int{n, 2 * n} {
		pts := workload.Points(workload.PointSpec{N: nn, Dims: 2, Dist: workload.Clustered, Seed: 7})
		paths := make([]string, p)
		for r, blk := range core.CanonicalBlocks(pts, p) {
			paths[r] = filepath.Join(dir, fmt.Sprintf("shard-%d-%d.drpf", nn, r))
			if err := pointsfile.Save(paths[r], blk); err != nil {
				return nil, err
			}
		}
		mach, err := cl.NewMachine()
		if err != nil {
			return nil, err
		}
		outB, inB := cl.CoordBytes()
		start := time.Now()
		tree, err := core.BulkLoadFiles(mach, paths, core.BackendLayered)
		if err != nil {
			return nil, fmt.Errorf("file load n=%d: %w", nn, err)
		}
		wall := time.Since(start)
		out, in := cl.CoordBytes()
		lrec := IngestLoadRecord{
			N:            nn,
			BuildMs:      float64(wall.Microseconds()) / 1e3,
			PointsPerSec: float64(nn) / wall.Seconds(),
			CoordBytes:   (out - outB) + (in - inB),
		}
		lrec.CoordBytesPerPoint = float64(lrec.CoordBytes) / float64(nn)
		rec.Loads = append(rec.Loads, lrec)
		tree.Machine().Close()
	}
	if rec.Loads[0].CoordBytes > 0 {
		rec.CoordGrowthX = float64(rec.Loads[1].CoordBytes) / float64(rec.Loads[0].CoordBytes)
	}

	// Streaming fixtures. The stream is sized so staging busy time per
	// rank comfortably exceeds the governor's free burst (the capped
	// sweep rows must actually throttle), and the chunk is small enough
	// that per-chunk round-trip overhead is a real cost for the funnel
	// to pay and the feeds to pipeline away.
	const chunk, window, serveN, serveM = 256, 4, 1 << 12, 256
	streamN := 16 * n
	streamPts := workload.Points(workload.PointSpec{N: streamN, Dims: 2, Dist: workload.Clustered, Seed: 23})

	stageWall := func() time.Duration {
		return time.Duration(reg.Counter("ingest_stage_wall_ns_total").Value())
	}
	fedPoints := func() (points int64) {
		for r := 0; r < p; r++ {
			points += reg.Counter(fmt.Sprintf(`ingest_feed_points_total{rank="%d"}`, r)).Value()
		}
		return points
	}
	feedCalls := func() (calls int64) {
		for r := 0; r < p; r++ {
			calls += workers[r].Obs().Counter(fmt.Sprintf(`worker_feed_calls_total{rank="%d"}`, r)).Value()
		}
		return calls
	}
	throttles := func() (waits int64) {
		for _, w := range workers {
			waits += w.Obs().Counter("worker_ingest_throttle_waits_total").Value()
		}
		return waits
	}
	runLoad := func(cfg core.IngestConfig) (stage, whole time.Duration, err error) {
		mach, err := cl.NewMachine()
		if err != nil {
			return 0, 0, err
		}
		s0 := stageWall()
		t0 := time.Now()
		tree, err := core.BulkLoad(mach, core.SliceChunks(streamPts, chunk), core.BackendLayered, cfg)
		if err != nil {
			return 0, 0, err
		}
		whole = time.Since(t0)
		tree.Machine().Close()
		return stageWall() - s0, whole, nil
	}

	// settle drains the previous construct's garbage so its collection
	// pauses are not billed to the next timed leg — on a small host one
	// build's churn can otherwise swing the next measurement several-fold.
	settle := func() {
		runtime.GC()
		time.Sleep(100 * time.Millisecond)
	}

	// Rank-parallel staging rate, best of two runs.
	calls0, points0 := feedCalls(), fedPoints()
	parStage := time.Duration(0)
	for rep := 0; rep < 2; rep++ {
		settle()
		stage, _, err := runLoad(core.IngestConfig{Window: window})
		if err != nil {
			return nil, fmt.Errorf("stream load: %w", err)
		}
		if parStage == 0 || stage < parStage {
			parStage = stage
		}
	}
	rec.Stream = IngestStreamRecord{
		N: streamN, Chunk: chunk, Window: window,
		ParallelStageMs:    float64(parStage.Microseconds()) / 1e3,
		ParallelPtsPerSec:  float64(streamN) / parStage.Seconds(),
		ParallelFeedCalls:  (feedCalls() - calls0) / 2, // per rep; two reps ran
		ParallelFeedPoints: (fedPoints() - points0) / 2,
	}

	// Serving fixture: a resident tree answering single-count queries.
	servePts := workload.Points(workload.PointSpec{N: serveN, Dims: 2, Dist: workload.Clustered, Seed: 13})
	serveMach, err := cl.NewMachine()
	if err != nil {
		return nil, err
	}
	serveTree, err := core.BulkLoad(serveMach, core.SliceChunks(servePts, chunk), core.BackendLayered, core.IngestConfig{Window: window})
	if err != nil {
		return nil, err
	}
	defer serveTree.Machine().Close()
	boxes := workload.Boxes(workload.QuerySpec{M: serveM, Dims: 2, N: serveN, Selectivity: 0.02, Seed: 17})
	oneQuery := func(i int) {
		serveTree.CountBatch(boxes[i%serveM : i%serveM+1])
	}

	// Calibrate the open-loop probe interval: ~4x the idle closed-loop
	// service time, floored at 5ms. An interval below the service time
	// would make the probe itself the overload and report queueing
	// delay even on an idle cluster.
	settle()
	oneQuery(0) // warm
	calN, calT0 := 25, time.Now()
	for i := 0; i < calN; i++ {
		oneQuery(i)
	}
	probeIvl := 4 * time.Since(calT0) / time.Duration(calN)
	if probeIvl < 5*time.Millisecond {
		probeIvl = 5 * time.Millisecond
	}
	if probeIvl > 50*time.Millisecond {
		probeIvl = 50 * time.Millisecond
	}
	rec.ProbeIntervalUs = float64(probeIvl.Microseconds())

	// Open-loop probe: queries issue on a fixed schedule and each latency
	// is measured from its SCHEDULED time — a load-induced stall shows up
	// as queueing delay on every query behind it instead of as fewer
	// samples (no coordinated omission). classify routes each sample to a
	// phase histogram at its completion.
	probe := func(stop <-chan struct{}, classify func() *obs.Histogram) int {
		start := time.Now()
		for i := 0; ; i++ {
			target := start.Add(time.Duration(i) * probeIvl)
			if d := time.Until(target); d > 0 {
				select {
				case <-stop:
					return i
				case <-time.After(d):
				}
			} else {
				select {
				case <-stop:
					return i
				default:
				}
			}
			oneQuery(i)
			classify().Observe(time.Since(target).Nanoseconds())
		}
	}

	// Idle baseline over a fixed 1s window, same probe.
	idleHist := reg.Histogram(`ingest_serve_latency_ns{phase="idle"}`)
	idleStop := make(chan struct{})
	time.AfterFunc(time.Second, func() { close(idleStop) })
	rec.QueriesIdle = probe(idleStop, func() *obs.Histogram { return idleHist })
	idle := idleHist.Snapshot()
	rec.IdleP50Us, rec.IdleP99Us = usQuantile(idle, 0.50), usQuantile(idle, 0.99)

	// The QoS sweep: the same rank-parallel load at several MaxShare
	// settings, probed open-loop for the whole of each load. The fed-
	// points counters mark the staging→construct phase boundary.
	for _, share := range []float64{0, 0.25, 0.1, 0.05} {
		settle()
		stageH := reg.Histogram(fmt.Sprintf(`ingest_serve_latency_ns{share="%g",phase="stage"}`, share))
		buildH := reg.Histogram(fmt.Sprintf(`ingest_serve_latency_ns{share="%g",phase="build"}`, share))
		fedTarget := fedPoints() + int64(streamN)
		w0 := throttles()
		stop := make(chan struct{})
		probeDone := make(chan struct{})
		go func() {
			probe(stop, func() *obs.Histogram {
				if fedPoints() < fedTarget {
					return stageH
				}
				return buildH
			})
			close(probeDone)
		}()
		stage, whole, err := runLoad(core.IngestConfig{Window: window, MaxShare: share})
		close(stop)
		<-probeDone
		if err != nil {
			return nil, fmt.Errorf("swept stream load (share=%g): %w", share, err)
		}
		sSnap, bSnap := stageH.Snapshot(), buildH.Snapshot()
		rec.Serve = append(rec.Serve, IngestServeRecord{
			Share:         share,
			IngestMs:      float64(whole.Microseconds()) / 1e3,
			StageMs:       float64(stage.Microseconds()) / 1e3,
			PointsPerSec:  float64(streamN) / stage.Seconds(),
			DuringP50Us:   usQuantile(sSnap, 0.50),
			DuringP99Us:   usQuantile(sSnap, 0.99),
			QueriesStage:  int(sSnap.Count),
			BuildP50Us:    usQuantile(bSnap, 0.50),
			BuildP99Us:    usQuantile(bSnap, 0.99),
			QueriesBuild:  int(bSnap.Count),
			ThrottleWaits: throttles() - w0,
		})
	}
	return rec, nil
}

// writeIngestJSON runs the ingest benchmark and writes the record.
func writeIngestJSON(path string) error {
	rec, err := runIngestBench(1<<15, 4)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("ingest bench: file load coord bytes %d at n=%d vs %d at n=%d (growth %.2fx; O(p^2) wants ~1)\n",
		rec.Loads[0].CoordBytes, rec.Loads[0].N, rec.Loads[1].CoordBytes, rec.Loads[1].N, rec.CoordGrowthX)
	fmt.Printf("  stream n=%d chunk=%d: rank-parallel %.2fM pts/s (%d feed calls)\n",
		rec.Stream.N, rec.Stream.Chunk, rec.Stream.ParallelPtsPerSec/1e6, rec.Stream.ParallelFeedCalls)
	fmt.Printf("  serve idle p50/p99 %.0f/%.0f us (%d queries, probe every %.0f us)\n",
		rec.IdleP50Us, rec.IdleP99Us, rec.QueriesIdle, rec.ProbeIntervalUs)
	for _, s := range rec.Serve {
		fmt.Printf("  share=%-4g stage p50/p99 %.0f/%.0f us (%d q), build p50/p99 %.0f/%.0f us (%d q), %d throttle waits, stage %.0f ms\n",
			s.Share, s.DuringP50Us, s.DuringP99Us, s.QueriesStage, s.BuildP50Us, s.BuildP99Us, s.QueriesBuild,
			s.ThrottleWaits, s.StageMs)
	}
	fmt.Printf("  -> %s\n", path)
	return nil
}
