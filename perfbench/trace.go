package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Spans live only in the benchmark: each wraps one call into a layer's
// public function. Spans of one request share a trace ID; a span's
// parent is the span that caused it. They are kept in memory and written
// out when the run ends.

type span struct {
	ID, Parent, Trace uint64
	Name              string
	Start, End        int64 // ns since the tracer's epoch
}

// tracer records spans. A nil *tracer is the untraced run: every method
// is a no-op, so call sites need no branches.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID mints a span or trace ID (0 when untraced).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// begin starts a span; pass the result to end. parent 0 makes a root.
func (t *tracer) begin(name string, trace, parent uint64) span {
	if t == nil {
		return span{}
	}
	id := t.newID()
	if trace == 0 {
		trace = id
	}
	return span{ID: id, Parent: parent, Trace: trace, Name: name, Start: int64(time.Since(t.epoch))}
}

// end closes and records s.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap runs fn inside a span.
func (t *tracer) wrap(name string, trace, parent uint64, fn func(id uint64)) {
	s := t.begin(name, trace, parent)
	fn(s.ID)
	t.end(s)
}

// selfTime is one span name's aggregate: calls, total duration and self
// time (duration minus the part its children's union covers).
type selfTime struct {
	Name        string
	Calls       int
	Total, Self time.Duration
}

// selfTimes aggregates recorded spans by name. Children may overlap each
// other (concurrent calls under one parent) and may outlive the parent;
// only the covered part of the parent's own interval is subtracted.
func selfTimes(spans []span) []selfTime {
	children := map[uint64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	by := map[string]*selfTime{}
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.Calls++
		st.Total += time.Duration(d)
		st.Self += time.Duration(d - coveredWithin(s.Start, s.End, children[s.ID]))
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	slices.SortFunc(out, func(a, b selfTime) int { return int(b.Self - a.Self) })
	return out
}

// writeTo writes every span as one tab-separated line.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\ttrace\tname\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Trace, s.Name, s.Start, s.End)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanNames are the spans every traced run reports self time for; a
// span that a workload never records reads 0.
var spanNames = []string{
	"engine.Count", "engine.Report", "engine.Aggregate",
	"core.Build", "core.BuildOn", "core.PrepareAssociative", "core.MixedBatch",
	"store.BulkLoad", "store.Mixed", "store.InsertBatch", "store.DeleteBatch", "store.Compact",
	"wire.Encode", "wire.Decode",
	"harness.setup", "harness.warm", "harness.replay",
}

// spanLayer prints every span name's self time and returns the mean
// self time per call of the reported names.
func spanLayer(tr *tracer) []metric {
	tr.mu.Lock()
	st := selfTimes(tr.spans)
	tr.mu.Unlock()
	by := map[string]selfTime{}
	logf("%-26s %9s %12s %12s", "span", "calls", "total_ms", "self_ms")
	for _, s := range st {
		by[s.Name] = s
		logf("%-26s %9d %12.3f %12.3f", s.Name, s.Calls, float64(s.Total)/1e6, float64(s.Self)/1e6)
	}
	var out []metric
	for _, name := range spanNames {
		v := 0.0
		if s, ok := by[name]; ok && s.Calls > 0 {
			v = float64(s.Self) / 1e6 / float64(s.Calls)
		}
		out = append(out, metric{"span." + name + ".self_ms_per_call", "ms", v})
	}
	return out
}
