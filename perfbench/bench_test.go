package main

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

var testSeeds = []int64{1, 2, 3, 17, 1 << 40}

// opCounts tallies the ops of stream elements [0, m).
func opCounts(s *stream, m int) map[core.MixedOp]int {
	c := map[core.MixedOp]int{}
	for i := 0; i < m; i++ {
		op, _ := s.at(int64(i))
		c[op]++
	}
	return c
}

// volumes returns the box volumes of stream elements [0, m).
func volumes(s *stream, m int) []float64 {
	v := make([]float64, m)
	for i := range v {
		_, b := s.at(int64(i))
		v[i] = boxVolume(b)
	}
	return v
}

// TestSeedInvariance generates every workload for several seeds and
// checks that nothing the system's cost depends on moved: n, d, the op
// mix, the pool size and the box volumes.
func TestSeedInvariance(t *testing.T) {
	type gen struct {
		name string
		data dataSpec
		str  func(seed int64) *stream
	}
	gens := []gen{
		{"serve-local", serveLocal.data, serveLocal.stream},
		{"serve-cluster-skew", serveClusterSkew.data, serveClusterSkew.stream},
		{"mutate-mix", mutateMix.data, func(seed int64) *stream {
			return uniformStream(seed, mutateMix.data.n, mutateMix.data.d, mutateMix.sel, mutateMix.mix)
		}},
	}
	const m = 4000 // a multiple of the op pattern's period
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			var ref struct {
				mix  map[core.MixedOp]int
				pool int
				vol  float64
			}
			for i, seed := range testSeeds {
				pts := points(g.data, seed)
				if len(pts) != g.data.n {
					t.Fatalf("seed %d: %d points, want %d", seed, len(pts), g.data.n)
				}
				for _, p := range pts {
					if p.Dims() != g.data.d {
						t.Fatalf("seed %d: point of %d dims, want %d", seed, p.Dims(), g.data.d)
					}
				}
				s := g.str(seed)
				mix := opCounts(s, m)
				vol := volumes(s, m)
				lo, hi := slices.Min(vol), slices.Max(vol)
				if hi > lo*1.01 {
					t.Errorf("seed %d: box volumes range %.0f..%.0f, want equal within 1%%", seed, lo, hi)
				}
				if i == 0 {
					ref.mix, ref.pool, ref.vol = mix, len(s.pool), lo
					continue
				}
				if s.pool == nil {
					// Generated streams repeat the exact mix in every period.
					for op, c := range mix {
						if c != ref.mix[op] {
							t.Errorf("seed %d: %d %v queries, seed %d had %d", seed, c, op, testSeeds[0], ref.mix[op])
						}
					}
				}
				if len(s.pool) != ref.pool {
					t.Errorf("seed %d: pool of %d boxes, want %d", seed, len(s.pool), ref.pool)
				}
				if math.Abs(lo-ref.vol) > 0.01*ref.vol {
					t.Errorf("seed %d: box volume %.0f, seed %d had %.0f", seed, lo, testSeeds[0], ref.vol)
				}
			}
		})
	}
}

// TestPoolComposition pins the skew pool: its size exceeds the engine's
// answer cache, its op mix is 50/50 and its composition per focus does
// not depend on the seed.
func TestPoolComposition(t *testing.T) {
	s := serveClusterSkew.stream(1)
	if len(s.pool) <= 1024 {
		t.Fatalf("pool of %d boxes does not exceed the engine's 1024-entry cache", len(s.pool))
	}
	ops := map[core.MixedOp]int{}
	for _, op := range s.poolOps {
		ops[op]++
	}
	if ops[core.OpCount] != ops[core.OpReport] {
		t.Errorf("pool mix %v, want 50/50 count/report", ops)
	}
	other := serveClusterSkew.stream(2)
	if !slices.Equal(s.poolOps, other.poolOps) {
		t.Errorf("pool ops differ between seeds")
	}
}

// TestReproducible: a fixed seed gives the same Poisson schedule, the
// same query stream and the same points.
func TestReproducible(t *testing.T) {
	a, b := poissonSchedule(7, 1000, 2), poissonSchedule(7, 1000, 2)
	if !slices.Equal(a, b) || len(a) == 0 {
		t.Fatalf("Poisson schedule not reproducible (%d vs %d arrivals)", len(a), len(b))
	}
	if c := poissonSchedule(8, 1000, 2); slices.Equal(a, c) {
		t.Errorf("different seeds gave the same schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 2 s at 1000/s", n)
	}
	s1, s2 := serveLocal.stream(7), serveLocal.stream(7)
	for i := int64(0); i < 500; i++ {
		op1, b1 := s1.at(i)
		op2, b2 := s2.at(i)
		if op1 != op2 || !slices.Equal(b1.Lo, b2.Lo) || !slices.Equal(b1.Hi, b2.Hi) {
			t.Fatalf("stream element %d differs between two generations", i)
		}
	}
	p1, p2 := points(serveLocal.data, 7), points(serveLocal.data, 7)
	for i := range p1 {
		if !slices.Equal(p1[i].X, p2[i].X) {
			t.Fatalf("point %d differs between two generations", i)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	p := percentile(xs, 0.5)
	if p.Value != 50 || p.N != 100 || p.Beyond != 50 || !p.OK() {
		t.Errorf("p50 of 1..100 = %+v, want 50 with 50 beyond", p)
	}
	p = percentile(xs, 0.9)
	if p.Value != 90 || p.Beyond != 10 || !p.OK() {
		t.Errorf("p90 of 1..100 = %+v, want 90 with 10 beyond", p)
	}
	// p95 of 100 samples has 5 beyond: refused.
	p = percentile(xs, 0.95)
	if p.Value != 95 || p.Beyond != 5 || p.OK() {
		t.Errorf("p95 of 1..100 = %+v, want 95 refused", p)
	}
	if p := percentile(nil, 0.5); p.OK() {
		t.Errorf("percentile of no samples reported OK")
	}
	if got := percentile([]float64{3, 1, 2}, 0.5).String(); got != "p50=2 (n=3, 1 beyond) REFUSED" {
		t.Errorf("String() = %q", got)
	}
}

// TestOpenLoopTimesFromDue: queries that queue behind a busy worker are
// charged their wait, because latency runs from the due time.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const n, each = 8, 5 * time.Millisecond
	sched := make([]int64, n) // all due at once
	var next atomic.Int64
	res := openLoop(sched, 1, &next, nil, func(idx int64, _ uint64) answer {
		time.Sleep(each)
		return answer{idx: idx}
	})
	if res.completed() != n || len(res.lag) != n {
		t.Fatalf("%d completed, %d lags; want %d", res.completed(), len(res.lag), n)
	}
	slices.Sort(res.lat)
	// Timed from send each would read ~5 ms; from the due time the last
	// one waited for all the others.
	if last := res.lat[n-1]; last < float64(n*each)/1e6*0.9 {
		t.Errorf("last query latency %.1f ms, want ≥ %.1f ms (timed from due time)", last, float64(n*each)/1e6*0.9)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // outlives the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 20},
	}
	got := map[string]selfTime{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	// Children cover [10,60) and [90,100) of the parent: 60 of 100.
	if p := got["parent"]; p.Self != 40 || p.Total != 100 {
		t.Errorf("parent self %v total %v, want 40 and 100", p.Self, p.Total)
	}
	// Child 2 loses the grandchild's 5; children 3 and 4 have none.
	if c := got["child"]; c.Calls != 3 || c.Total != 90 || c.Self != 85 {
		t.Errorf("child calls %d total %v self %v, want 3, 90, 85", c.Calls, c.Total, c.Self)
	}
}

func TestCoveredWithin(t *testing.T) {
	for _, tc := range []struct {
		lo, hi int64
		ivs    []interval
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, []interval{{2, 4}, {3, 5}, {5, 6}}, 4},
		{0, 10, []interval{{-5, 3}, {8, 20}}, 5},
		{0, 10, []interval{{1, 9}, {2, 3}}, 8},
		{0, 10, []interval{{20, 30}}, 0},
	} {
		if got := coveredWithin(tc.lo, tc.hi, tc.ivs); got != tc.want {
			t.Errorf("coveredWithin(%d, %d, %v) = %d, want %d", tc.lo, tc.hi, tc.ivs, got, tc.want)
		}
	}
}

// TestOracleMatchesFullScan cross-checks the grid oracle against one
// brute.Set over all points on a sample of stream queries.
func TestOracleMatchesFullScan(t *testing.T) {
	spec := dataSpec{n: 4096, d: 2, perDim: 3, spread: 0.06}
	pts := points(spec, 3)
	o := newOracle(pts, spec.n)
	full := newOracle(pts, spec.n)
	full.g, full.cells = 1, full.cells[:1]
	full.cells[0].Pts = pts
	str := uniformStream(3, spec.n, spec.d, 0.01, map[core.MixedOp]int{core.OpCount: 1, core.OpReport: 1, core.OpAggregate: 1})
	for i := int64(0); i < 300; i++ {
		_, b := str.at(i)
		if o.count(b) != full.count(b) || idHash(o.report(b)) != idHash(full.report(b)) ||
			math.Abs(o.weight(b)-full.weight(b)) > 1e-9*math.Max(1, full.weight(b)) {
			t.Fatalf("query %d: grid oracle disagrees with a full scan", i)
		}
	}
}

// boxVolume is the number of rank-space cells a box covers.
func boxVolume(b geom.Box) float64 {
	v := 1.0
	for j := range b.Lo {
		v *= float64(b.Hi[j]-b.Lo[j]) + 1
	}
	return v
}
