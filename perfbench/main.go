// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload in a single process and prints, as
// the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 they are the per-layer ones, taken from
// spans the benchmark records around calls into each layer plus counters
// the layers export. Every answer is checked against internal/brute.
//
//	go build -o perfbench . && ./perfbench -workload serve-local -seed 1 -seconds 12 -trace 0
//
// run.sh builds and runs it from the repository root with its caches kept
// inside the checkout. README.md lists the workloads, the metrics and the
// measured run-to-run spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	endToEnd          []metric
	perLayer          []metric
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	tr      *tracer // nil in untraced runs
	dir     string  // per-run scratch directory inside the checkout
}

// workloads maps a name to its runner; each file defining a workload
// registers it here.
var workloads = map[string]func(runConfig) (*outcome, error){
	"serve-local":        runServeLocal,
	"serve-cluster-skew": runServeClusterSkew,
	"mutate-mix":         runMutateMix,
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-local, serve-cluster-skew or mutate-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 12, "measured seconds (split across the load phases)")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	scratch := flag.String("scratch", ".bench_build/run", "scratch directory for the run's files")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// One process, at most one scheduler thread per CPU this process may
	// use: the load generator and the program share them, as they would
	// on a deployment of this size.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	dir, err := os.MkdirTemp(mustMkdir(*scratch), *name+"-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{seed: *seed, seconds: float64(*seconds), dir: dir}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	start := time.Now()
	out, err := run(cfg)
	if err != nil {
		os.RemoveAll(dir)
		fail(err)
	}
	fmt.Printf("perfbench: run took %.1fs\n", time.Since(start).Seconds())

	ms := out.endToEnd
	if cfg.tr != nil {
		ms = out.perLayer
		path := filepath.Join(*scratch, "spans-"+*name+".tsv")
		if err := cfg.tr.writeTo(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Printf("perfbench: %d spans written to %s\n", len(cfg.tr.spans), path)
		}
	}
	for _, m := range ms {
		fmt.Printf("  %-40s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	metrics := map[string]any{}
	for _, m := range ms {
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	return dir
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// logf prints a diagnostic line to standard output (never the last line).
func logf(format string, args ...any) {
	fmt.Printf("  "+strings.TrimSuffix(format, "\n")+"\n", args...)
}
