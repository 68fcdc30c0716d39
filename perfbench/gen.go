package main

import (
	"math"

	"repro/internal/core"
	"repro/internal/geom"
)

// Input generation. Every property the system's cost depends on — n, d,
// the cluster layout, box side lengths, the op mix and the query pool —
// is fixed by the workload; the seed only jitters points inside fixed
// grid cells and orders the query stream. Two seeds therefore give the
// same amount of work (the seed-invariance tests pin this), so run-to-run
// spread measures the program and the host, not the inputs.

// mix64 is the splitmix64 finalizer: a bijective 64-bit hash, so stream
// element i is a pure function of (seed, i) and any goroutine can
// regenerate it without shared state.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: mix64(seed)} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// norm returns a standard normal variate (Box–Muller).
func (r *rng) norm() float64 {
	u := 1 - r.float()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.float())
}

// layoutSeed fixes the cluster layout independently of the run's seed.
const layoutSeed = 0x1a7e5eed

// cellsPerDim is the jitter grid: a point's cell is fixed by the layout,
// the seed places it uniformly inside that cell.
const cellsPerDim = 512

// dataSpec describes a clustered point set whose cluster centres sit on
// a fixed grid of perDim^d positions.
type dataSpec struct {
	n, d   int
	perDim int     // cluster centres per dimension
	spread float64 // cluster standard deviation as a fraction of the domain
}

// points generates the rank-normalized point set for one seed. Point i
// always belongs to cluster i mod clusters and always lands in the same
// grid cell; only its position inside the cell depends on the seed.
func points(spec dataSpec, seed int64) []geom.Point {
	clusters := 1
	for j := 0; j < spec.d; j++ {
		clusters *= spec.perDim
	}
	fixed := newRNG(layoutSeed)
	jitter := newRNG(uint64(seed) ^ 0x7075a11e)
	raw := make([][]float64, spec.n)
	for i := range raw {
		c := i % clusters
		row := make([]float64, spec.d)
		for j := range row {
			centre := (float64(c%spec.perDim) + 0.5) / float64(spec.perDim)
			c /= spec.perDim
			x := centre + fixed.norm()*spec.spread
			x = math.Min(math.Max(x, 0), 1-1e-9)
			cell := math.Floor(x * cellsPerDim)
			row[j] = (cell + jitter.float()) / cellsPerDim
		}
		raw[i] = row
	}
	pts, _ := geom.NormalizeFloat64(raw)
	return pts
}

// boxSide is the per-dimension side length in rank space of a box that
// covers the fraction sel of the domain's volume.
func boxSide(n, d int, sel float64) int {
	return int(math.Ceil(float64(n) * math.Pow(sel, 1/float64(d))))
}

// uniformBox returns a side^d box whose centre is uniform over the
// positions where it fits entirely inside the rank domain 1..n, so every
// box has exactly the same volume.
func uniformBox(r *rng, n, d, side int) geom.Box {
	lo := make([]geom.Coord, d)
	hi := make([]geom.Coord, d)
	for j := 0; j < d; j++ {
		a := 1 + r.intn(n-side+1)
		lo[j], hi[j] = geom.Coord(a), geom.Coord(a+side-1)
	}
	return geom.Box{Lo: lo, Hi: hi}
}

// opPattern interleaves a fixed op mix over a 20-query period, so every
// window of 20 consecutive stream elements has exactly the mix.
func opPattern(counts map[core.MixedOp]int) []core.MixedOp {
	var pat []core.MixedOp
	left := map[core.MixedOp]int{}
	total := 0
	for op, c := range counts {
		left[op] = c
		total += c
	}
	// Largest-remainder interleave: at each step emit the op furthest
	// behind its target share.
	emitted := map[core.MixedOp]int{}
	for k := 1; k <= total; k++ {
		best, bestGap := core.MixedOp(-1), math.Inf(-1)
		for _, op := range []core.MixedOp{core.OpCount, core.OpReport, core.OpAggregate} {
			c := counts[op]
			if left[op] == 0 {
				continue
			}
			gap := float64(k*c)/float64(total) - float64(emitted[op])
			if gap > bestGap {
				best, bestGap = op, gap
			}
		}
		pat = append(pat, best)
		left[best]--
		emitted[best]++
	}
	return pat
}

// stream is an indexable, seed-ordered query stream: query i is a pure
// function of (seed, i), so clients draw indices from a shared counter
// and the oracle regenerates any query after timing stops.
type stream struct {
	seed uint64
	n, d int
	side int
	ops  []core.MixedOp
	// pool, when set, replaces generated boxes: query i is a uniform
	// draw from the pool and carries the pool entry's op.
	pool    []geom.Box
	poolOps []core.MixedOp
}

// at returns query i of the stream.
func (s *stream) at(i int64) (core.MixedOp, geom.Box) {
	r := rng{s: s.seed ^ mix64(uint64(i))}
	if s.pool != nil {
		j := r.intn(len(s.pool))
		return s.poolOps[j], s.pool[j]
	}
	off := int(s.seed % uint64(len(s.ops)))
	return s.ops[(int(i)+off)%len(s.ops)], uniformBox(&r, s.n, s.d, s.side)
}

// uniformStream is a stream of unique-in-practice uniform-centre boxes of
// fixed selectivity with the given op mix (counts per 20 queries).
func uniformStream(seed int64, n, d int, sel float64, mix map[core.MixedOp]int) *stream {
	return &stream{seed: mix64(uint64(seed) ^ 0x5eed5eed), n: n, d: d,
		side: boxSide(n, d, sel), ops: opPattern(mix)}
}

// skewSpec describes a finite query pool around Zipf-weighted foci that
// sit on fixed grid cells.
type skewSpec struct {
	n, d     int
	sel      float64
	foci     int     // foci on a fixed grid (a square number for d = 2)
	theta    float64 // Zipf exponent over the foci
	poolSize int
}

// skewStream builds the pool (fixed composition: how many boxes each
// focus owns and each box's op never depend on the seed; the seed jitters
// box centres around their focus) and a stream of uniform draws from it.
func skewStream(spec skewSpec, seed int64) *stream {
	side := boxSide(spec.n, spec.d, spec.sel)
	per := int(math.Round(math.Pow(float64(spec.foci), 1/float64(spec.d))))
	// Foci on a per^d grid inset from the domain edge by a full side, so
	// no jittered box is ever clipped.
	span := spec.n - 3*side
	focus := func(f int) []int {
		c := make([]int, spec.d)
		for j := range c {
			c[j] = 1 + side + span*(2*(f%per)+1)/(2*per)
			f /= per
		}
		return c
	}
	weights := make([]float64, spec.foci)
	total := 0.0
	for f := range weights {
		weights[f] = 1 / math.Pow(float64(f+1), spec.theta)
		total += weights[f]
	}
	// Largest-remainder apportionment of pool entries to foci.
	counts := make([]int, spec.foci)
	assigned := 0
	for f := range counts {
		counts[f] = int(float64(spec.poolSize) * weights[f] / total)
		assigned += counts[f]
	}
	for f := 0; assigned < spec.poolSize; f = (f + 1) % spec.foci {
		counts[f]++
		assigned++
	}
	// Zipf rank r goes to a fixed, scattered grid cell so the hot foci
	// are not all in one corner (and not all on one processor's part).
	cellOf := make([]int, spec.foci)
	for r := range cellOf {
		cellOf[r] = (r * 7) % spec.foci
	}
	jit := newRNG(uint64(seed) ^ 0xf0c1)
	s := &stream{seed: mix64(uint64(seed) ^ 0x5ca1ab1e), n: spec.n, d: spec.d, side: side}
	for r, c := range counts {
		centre := focus(cellOf[r])
		for k := 0; k < c; k++ {
			lo := make([]geom.Coord, spec.d)
			hi := make([]geom.Coord, spec.d)
			for j := 0; j < spec.d; j++ {
				a := centre[j] - side/2 + jit.intn(side/2+1) - side/4
				lo[j], hi[j] = geom.Coord(a), geom.Coord(a+side-1)
			}
			op := core.OpCount
			if len(s.pool)%2 == 1 {
				op = core.OpReport
			}
			s.pool = append(s.pool, geom.Box{Lo: lo, Hi: hi})
			s.poolOps = append(s.poolOps, op)
		}
	}
	return s
}

// poissonSchedule returns the due offsets (ns from phase start) of a
// Poisson arrival process at rate per second over dur seconds.
func poissonSchedule(seed int64, rate, dur float64) []int64 {
	r := newRNG(uint64(seed) ^ 0xa771)
	var out []int64
	t := 0.0
	for {
		t += -math.Log(1-r.float()) / rate
		if t >= dur {
			return out
		}
		out = append(out, int64(t*1e9))
	}
}
