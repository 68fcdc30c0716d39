package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// answer is one completed query, reduced to what the oracle compares:
// the count (or the number of reported points), the aggregate, and an
// order-independent hash of the reported IDs.
type answer struct {
	idx    int64
	count  int64
	agg    float64
	hash   uint64
	failed bool
}

// doFunc issues stream query idx and waits for its answer. trace is the
// request's trace ID (0 in untraced runs).
type doFunc func(idx int64, trace uint64) answer

// phaseResult is what one load phase measured.
type phaseResult struct {
	lat     []float64 // ms, one per completed query
	lag     []float64 // open loop: ms the generator sent late
	answers []answer
	wall    time.Duration
	host    float64   // other processes' CPU + steal share during the phase
	hosts   []float64 // host share of each merged segment
	done    int       // completed queries (answers may be dropped once checked)
}

func (p *phaseResult) completed() int { return p.done }

func (p *phaseResult) failed() int {
	n := 0
	for _, a := range p.answers {
		if a.failed {
			n++
		}
	}
	return n
}

// merge appends per-goroutine results.
func (p *phaseResult) merge(lat []float64, ans []answer) {
	p.lat = append(p.lat, lat...)
	p.answers = append(p.answers, ans...)
	p.done += len(ans)
}

// add merges segment q into p.
func (p *phaseResult) add(q phaseResult) {
	p.merge(q.lat, q.answers)
	p.lag = append(p.lag, q.lag...)
	p.wall += q.wall
	p.hosts = append(p.hosts, q.host)
}

// closedLoop runs clients goroutines that each send their next query as
// soon as the previous one returns, until dur has elapsed. Latency is
// timed from send.
func closedLoop(clients int, dur time.Duration, next *atomic.Int64, tr *tracer, do doFunc) phaseResult {
	var res phaseResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	h0 := readHost()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var ans []answer
			for time.Since(start) < dur {
				idx := next.Add(1) - 1
				t0 := time.Now()
				a := do(idx, tr.newID())
				lat = append(lat, float64(time.Since(t0))/1e6)
				ans = append(ans, a)
			}
			mu.Lock()
			res.merge(lat, ans)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.host = otherBusy(h0, readHost())
	return res
}

// openLoop sends query k at its due time schedule[k] (ns from the phase
// start) regardless of completions, handing it to a pool of workers large
// enough that the engine can always fill a batch. Latency is timed from
// the due time, so a stall is charged to every query it delays; lag
// records how late the generator itself sent each query. The generator
// reuses one timer, allocating nothing per request.
func openLoop(schedule []int64, workers int, next *atomic.Int64, tr *tracer, do doFunc) phaseResult {
	type job struct {
		idx int64
		due time.Time
	}
	// Buffered for the whole schedule: the generator must never block on
	// a saturated pool, or it would stop charging queueing to latency.
	jobs := make(chan job, len(schedule))
	var res phaseResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var ans []answer
			for j := range jobs {
				a := do(j.idx, tr.newID())
				lat = append(lat, float64(time.Since(j.due))/1e6)
				ans = append(ans, a)
			}
			mu.Lock()
			res.merge(lat, ans)
			mu.Unlock()
		}()
	}
	h0 := readHost()
	start := time.Now()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	lag := make([]float64, 0, len(schedule))
	for _, off := range schedule {
		due := start.Add(time.Duration(off))
		// Sleeping for less than the timer's resolution would only add
		// lag; such queries are sent at once.
		if d := time.Until(due); d > 50*time.Microsecond {
			timer.Reset(d)
			<-timer.C
		}
		lag = append(lag, max(0, float64(time.Since(due))/1e6))
		jobs <- job{idx: next.Add(1) - 1, due: due}
	}
	close(jobs)
	wg.Wait()
	res.wall = time.Since(start)
	res.lag = lag
	res.host = otherBusy(h0, readHost())
	return res
}
