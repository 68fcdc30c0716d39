package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/brute"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/semigroup"
	"repro/internal/workload"
)

// idHash is an order-independent hash of a point set's IDs: a report is
// compared with the oracle's sorted ID list by count plus this hash, so
// clients need not sort (or keep) what they receive while timing runs.
func idHash(pts []geom.Point) uint64 {
	var h uint64
	for _, p := range pts {
		h += mix64(uint64(uint32(p.ID)))
	}
	return h
}

// oracle answers queries with internal/brute's linear scans, run over
// the candidate cells of a grid on the first two dimensions so checking
// every answer of a run stays affordable. Each cell is a brute.Set; the
// grid only decides which sets a box can touch.
type oracle struct {
	n, g  int
	cells []brute.Set // g×g, row-major by (x0, x1) cell
}

const oracleCells = 64

func newOracle(pts []geom.Point, n int) *oracle {
	o := &oracle{n: n, g: oracleCells, cells: make([]brute.Set, oracleCells*oracleCells)}
	for _, p := range pts {
		c := o.cell(p.X[0])*o.g + o.cell(p.X[1])
		o.cells[c].Pts = append(o.cells[c].Pts, p)
	}
	return o
}

func (o *oracle) cell(x geom.Coord) int {
	return min(max(int(int64(x-1)*int64(o.g)/int64(o.n)), 0), o.g-1)
}

// sets returns the cells box b can intersect.
func (o *oracle) sets(b geom.Box, fn func(*brute.Set)) {
	if b.Empty() {
		return
	}
	for i := o.cell(b.Lo[0]); i <= o.cell(b.Hi[0]); i++ {
		for j := o.cell(b.Lo[1]); j <= o.cell(b.Hi[1]); j++ {
			fn(&o.cells[i*o.g+j])
		}
	}
}

func (o *oracle) count(b geom.Box) int64 {
	var c int
	o.sets(b, func(s *brute.Set) { c += s.Count(b) })
	return int64(c)
}

// report returns R(b) sorted by ID.
func (o *oracle) report(b geom.Box) []geom.Point {
	var out []geom.Point
	o.sets(b, func(s *brute.Set) { out = append(out, s.Report(b)...) })
	slices.SortFunc(out, func(x, y geom.Point) int { return int(x.ID) - int(y.ID) })
	return out
}

func (o *oracle) weight(b geom.Box) float64 {
	var w float64
	o.sets(b, func(s *brute.Set) { w += brute.Aggregate(s, semigroup.FloatSum(), workload.WeightOf, b) })
	return w
}

// matches reports whether a recorded answer equals the oracle's.
func (o *oracle) matches(op core.MixedOp, b geom.Box, a answer) bool {
	if a.failed {
		return false
	}
	switch op {
	case core.OpCount:
		return a.count == o.count(b)
	case core.OpAggregate:
		want := o.weight(b)
		return math.Abs(a.agg-want) <= 1e-9*math.Max(math.Abs(want), 1)
	default:
		want := o.report(b)
		if !slices.IsSortedFunc(want, func(x, y geom.Point) int { return int(x.ID) - int(y.ID) }) {
			return false
		}
		return a.count == int64(len(want)) && a.hash == idHash(want)
	}
}

// checkAll compares every answer with the oracle on all CPUs and returns
// the number that disagree. at regenerates query idx.
func checkAll(o *oracle, answers []answer, at func(int64) (core.MixedOp, geom.Box)) int {
	var bad atomic.Int64
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(answers); i += workers {
				op, b := at(answers[i].idx)
				if !o.matches(op, b, answers[i]) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(bad.Load())
}
