package main

import (
	"slices"
	"strings"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/transport"
	"repro/internal/wire"
)

// treeRig is an immutable tree as the benchmark drives it directly
// (warm-up passes and traced replays), beside the engine serving it.
type treeRig struct {
	tree *core.Tree
	h    *core.AggHandle[float64] // nil when the workload has no aggregates
	cl   *transport.Cluster       // nil in process
}

// batch answers one fixed batch directly, inside a core.MixedBatch span.
func (r *treeRig) batch(tr *tracer, parent uint64, ops []core.MixedOp, boxes []geom.Box) time.Duration {
	s := tr.begin("core.MixedBatch", 0, parent)
	t0 := time.Now()
	core.MixedBatch(r.tree, r.h, ops, boxes)
	d := time.Since(t0)
	tr.end(s)
	return d
}

// fixedBatch is batch b of k queries starting at stream index first,
// deduplicated like the engine does.
func fixedBatch(str *stream, first int64, b, k int) ([]core.MixedOp, []geom.Box, int) {
	ops := make([]core.MixedOp, k)
	boxes := make([]geom.Box, k)
	for i := range ops {
		ops[i], boxes[i] = str.at(first + int64(b*k+i))
	}
	return dedupBatch(ops, boxes)
}

// coldInstalls is Σ (CopiesHeld − CopyCacheHits) of the last batch: the
// phase-B copies that had to be built rather than reused.
func coldInstalls(t *core.Tree) int {
	n := 0
	for _, st := range t.LastSearchStats() {
		n += st.CopiesHeld - st.CopyCacheHits
	}
	return n
}

// warmSizes are the batch sizes a warm-up pass cycles through: the
// measured window dispatches full batches (closed loop), single queries
// (lone loop) and everything between (open loop), and small batches
// skew phase-B demand far more than full ones, so each size copies
// parts to hosts the others never pick.
var warmSizes = []int{64, 16, 4, 1}

// warmPasses replays passes × batches fresh batches drawn from the
// measured stream's distribution and returns the cold installs per batch
// of each pass; set-up is warm when the last passes agree.
func (r *treeRig) warmPasses(tr *tracer, parent uint64, str *stream, first int64, passes, batches int) []float64 {
	var per []float64
	next := first
	for p := 0; p < passes; p++ {
		cold := 0
		for b := 0; b < batches; b++ {
			k := warmSizes[b%len(warmSizes)]
			ops, boxes, _ := fixedBatch(str, next, 0, k)
			next += int64(k)
			r.batch(tr, parent, ops, boxes)
			cold += coldInstalls(r.tree)
		}
		per = append(per, float64(cold)/float64(batches))
	}
	return per
}

// copyRoundElems sums the elements exchanged by phase-B copy rounds from
// round index from on: one element per shipped forest-element copy, so
// the window's copies are counted from the machine's own (mutex-guarded)
// metrics while the engine is serving.
func copyRoundElems(m cgm.Metrics, from int) int {
	n := 0
	for _, r := range m.Rounds[from:] {
		if strings.HasSuffix(r.Label, "/copies") || strings.HasSuffix(r.Label, "/ecopies") {
			n += r.TotalElems
		}
	}
	return n
}

// phaseOf attributes a round's local work to the search phase it ends:
// the demand all-gather closes phase A (hat descent), the copy and route
// exchanges close phase B, everything later closes phase C and the
// result collectives.
func phaseOf(label string) int {
	switch {
	case strings.HasSuffix(label, "/demand"), strings.HasSuffix(label, "/edemand"):
		return 0
	case strings.HasSuffix(label, "/copies"), strings.HasSuffix(label, "/ecopies"),
		strings.HasSuffix(label, "/route"), strings.HasSuffix(label, "/eroute"):
		return 1
	}
	return 2
}

// replayStats are the per-batch layer quantities of replayed batches.
type replayStats struct {
	wallMs                        []float64
	rounds, maxh, elems           float64
	workMs                        [3]float64
	imbalance, servedImb          float64
	copies, cold, copiedPts, inst float64
	encBytes, gobBlocks           float64
	coordBytes, frames            float64
	dedup                         float64
}

// replay answers nb fixed batches of k queries directly on the tree and
// reads every layer's counters around each one. The engine must be idle.
func (r *treeRig) replay(tr *tracer, str *stream, first int64, nb, k int) replayStats {
	mach := r.tree.Machine()
	root := tr.begin("harness.replay", 0, 0)
	var rs replayStats
	var work []time.Duration
	var queries, dropped int
	for b := 0; b < nb; b++ {
		ops, boxes, drop := fixedBatch(str, first, b, k)
		queries += k
		dropped += drop
		mach.ResetMetrics()
		w0 := wire.Stats()
		var out0, in0 int64
		var f0 map[string]transport.FrameStat
		if r.cl != nil {
			out0, in0 = r.cl.CoordBytes()
			f0 = r.cl.WireStats()
		}
		d := r.batch(tr, root.ID, ops, boxes)
		rs.wallMs = append(rs.wallMs, float64(d)/1e6)
		m := mach.Metrics()
		w1 := wire.Stats()
		for _, rd := range m.Rounds {
			if !rd.Final {
				rs.rounds++
				rs.elems += float64(rd.TotalElems)
			}
			rs.workMs[phaseOf(rd.Label)] += float64(rd.MaxWork) / 1e6
		}
		rs.maxh += float64(m.MaxH())
		if work == nil {
			work = make([]time.Duration, len(m.WorkByProc))
		}
		for i, w := range m.WorkByProc {
			work[i] += w
		}
		served := make([]float64, 0, r.tree.P())
		for _, st := range r.tree.LastSearchStats() {
			rs.copies += float64(st.CopiesHeld)
			served = append(served, float64(st.Served))
		}
		rs.servedImb += maxOverMean(served)
		rs.cold += float64(coldInstalls(r.tree))
		rs.copiedPts += float64(r.tree.LastCopiedPoints())
		rs.inst += float64(r.tree.LastPhaseBInstall()) / 1e6
		rs.encBytes += float64((w1.RawEncBytes + w1.GobEncBytes) - (w0.RawEncBytes + w0.GobEncBytes))
		rs.gobBlocks += float64(w1.GobEncBlocks - w0.GobEncBlocks)
		if r.cl != nil {
			out1, in1 := r.cl.CoordBytes()
			rs.coordBytes += float64(out1 - out0 + in1 - in0)
			for kind, st := range r.cl.WireStats() {
				rs.frames += float64(st.Frames - f0[kind].Frames)
			}
		}
	}
	tr.end(root)
	n := float64(nb)
	rs.rounds /= n
	rs.elems /= n
	rs.maxh /= n
	for i := range rs.workMs {
		rs.workMs[i] /= n
	}
	ws := make([]float64, len(work))
	for i, w := range work {
		ws[i] = float64(w)
	}
	rs.imbalance = maxOverMean(ws)
	rs.servedImb /= n
	rs.copies /= n
	rs.cold /= n
	rs.copiedPts /= n
	rs.inst /= n
	rs.encBytes /= n
	rs.gobBlocks /= n
	rs.coordBytes /= n
	rs.frames /= n
	rs.dedup = float64(dropped) / float64(queries)
	return rs
}

func (rs replayStats) local() float64 { return rs.workMs[0] + rs.workMs[1] + rs.workMs[2] }

func maxOverMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if sum == 0 {
		return 0
	}
	return slices.Max(xs) / (sum / float64(len(xs)))
}

// codecRates times wire.Encode and wire.Decode on a fixed block of
// points and returns ns per KB of encoded bytes for each direction.
func codecRates(tr *tracer, pts []geom.Point, reps int) (enc, dec float64) {
	block := pts[:min(len(pts), 4096)]
	var buf []byte
	var encNs, decNs int64
	for i := 0; i < reps; i++ {
		s := tr.begin("wire.Encode", 0, 0)
		t0 := time.Now()
		b, err := wire.Encode(buf[:0], block)
		encNs += int64(time.Since(t0))
		tr.end(s)
		if err != nil {
			panic(err)
		}
		buf = b
		s = tr.begin("wire.Decode", 0, 0)
		t0 = time.Now()
		if _, err := wire.Decode[[]geom.Point](buf); err != nil {
			panic(err)
		}
		decNs += int64(time.Since(t0))
		tr.end(s)
	}
	kb := float64(len(buf)) / 1024 * float64(reps)
	return float64(encNs) / kb, float64(decNs) / kb
}

// treeLayers turns replays of full and single-query batches into the
// core, cgm, wire and transport per-layer metrics plus the ledger
// residue. queueWait is the open loop's engine latency p50 minus the
// batch time at its occupancy.
func treeLayers(full, one replayStats, queueWait, encRate, decRate float64) []metric {
	batchP50 := median(slices.Clone(full.wallMs))
	codec := full.encBytes / 1024 * (encRate + decRate) / 1e6 // ms per batch
	residue := 0.0
	if batchP50 > 0 {
		residue = (batchP50 - full.local() - codec) / batchP50
	}
	return []metric{
		{"engine.queue_wait_ms.p50", "ms", queueWait},
		{"core.batch_ms.p50", "ms", batchP50},
		{"core.batch1_ms.p50", "ms", median(slices.Clone(one.wallMs))},
		{"core.phaseA_work_ms", "ms", full.workMs[0]},
		{"core.phaseB_work_ms", "ms", full.workMs[1]},
		{"core.phaseC_work_ms", "ms", full.workMs[2]},
		{"core.copies_per_batch", "count", full.copies},
		{"core.cold_installs_per_batch", "count", full.cold},
		{"core.copied_points_per_batch", "count", full.copiedPts},
		{"core.install_ms_per_batch", "ms", full.inst},
		{"core.served_imbalance", "ratio", full.servedImb},
		{"cgm.rounds_per_batch", "count", full.rounds},
		{"cgm.maxh_per_batch", "count", full.maxh},
		{"cgm.elems_per_batch", "count", full.elems},
		{"cgm.local_work_ms_per_batch", "ms", full.local()},
		{"cgm.nonwork_ms_per_batch", "ms", batchP50 - full.local()},
		{"cgm.work_imbalance", "ratio", full.imbalance},
		{"wire.enc_bytes_per_batch", "B", full.encBytes},
		{"wire.gob_blocks_per_batch", "count", full.gobBlocks},
		{"wire.enc_ns_per_kb", "ns", encRate},
		{"wire.dec_ns_per_kb", "ns", decRate},
		{"transport.coord_bytes_per_batch", "B", full.coordBytes},
		{"transport.frames_per_batch", "count", full.frames},
		{"ledger.residue_frac", "ratio", residue},
	}
}
