package transport_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/aggregates" // registers the standard named aggregates
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/workload"
)

// startCluster spins up p in-process workers on ephemeral localhost
// ports and dials them with the given machine config.
func startCluster(t *testing.T, p int, cfg cgm.Config) *transport.Cluster {
	t.Helper()
	addrs := make([]string, p)
	for i := range addrs {
		w, err := transport.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
	}
	cl, err := transport.DialCluster(addrs, cfg)
	if err != nil {
		t.Fatalf("dial cluster: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// comparableRounds strips the wall-clock fields from the round stats:
// everything else — the number of rounds, their labels and order, the h
// of every round, the exchanged volume — must be byte-for-byte identical
// across transports AND residency modes.
type roundKey struct {
	Label      string
	MaxH       int
	TotalElems int
	Final      bool
}

func comparableRounds(mt cgm.Metrics) []roundKey {
	out := make([]roundKey, len(mt.Rounds))
	for i, r := range mt.Rounds {
		out[i] = roundKey{Label: r.Label, MaxH: r.MaxH, TotalElems: r.TotalElems, Final: r.Final}
	}
	return out
}

func assertMetricsEqual(t *testing.T, phase, aName, bName string, a, b cgm.Metrics) {
	t.Helper()
	ar, br := comparableRounds(a), comparableRounds(b)
	if len(ar) != len(br) {
		t.Fatalf("%s: %s folded %d rounds, %s %d", phase, aName, len(ar), bName, len(br))
	}
	for i := range ar {
		if ar[i] != br[i] {
			t.Fatalf("%s round %d diverges:\n  %-17s %+v\n  %-17s %+v", phase, i, aName, ar[i], bName, br[i])
		}
	}
	if a.Runs != b.Runs {
		t.Fatalf("%s: %s ran %d machine runs, %s %d", phase, aName, a.Runs, bName, b.Runs)
	}
}

// execVariant is one cell of the {loopback, TCP} × {fabric, resident}
// matrix.
type execVariant struct {
	name     string
	tcp      bool
	resident bool
}

var execVariants = []execVariant{
	{"loopback/fabric", false, false},
	{"loopback/resident", false, true},
	{"tcp/fabric", true, false},
	{"tcp/resident", true, true},
}

func (v execVariant) provider(t *testing.T, p int) cgm.Provider {
	cfg := cgm.Config{P: p, Resident: v.resident}
	if v.tcp {
		return startCluster(t, p, cfg)
	}
	return cgm.NewLocalProvider(cfg)
}

// TestCrossTransportEquivalence is the refactor's safety net, now across
// residency too: the same SPMD programs must return identical answers AND
// identical round/h metrics whether the supersteps move through shared
// memory or TCP worker processes, and whether the forest lives in
// coordinator memory (fabric) or where the programs execute (resident) —
// for construction and all three §4.2 result modes, across machine
// widths and dimensionalities.
func TestCrossTransportEquivalence(t *testing.T) {
	for _, p := range []int{1, 4} {
		for _, d := range []int{2, 3} {
			t.Run(fmt.Sprintf("p=%d/d=%d", p, d), func(t *testing.T) {
				n, m := 500, 48
				pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Clustered, Seed: 7})
				boxes := workload.Boxes(workload.QuerySpec{M: m, Dims: d, N: n, Selectivity: 0.05, Seed: 11})

				trees := make([]*core.Tree, len(execVariants))
				for i, v := range execVariants {
					tree, err := core.BuildOn(v.provider(t, p), pts, core.BackendLayered)
					if err != nil {
						t.Fatalf("%s build: %v", v.name, err)
					}
					trees[i] = tree
					if err := tree.Verify(); err != nil {
						t.Fatalf("%s fails Verify: %v", v.name, err)
					}
				}
				base := trees[0]
				for i, v := range execVariants[1:] {
					assertMetricsEqual(t, "construct", execVariants[0].name, v.name,
						base.Machine().Metrics(), trees[i+1].Machine().Metrics())
				}
				for _, tree := range trees {
					tree.Machine().ResetMetrics()
				}

				// Count mode.
				want := base.CountBatch(boxes)
				for i, v := range execVariants[1:] {
					got := trees[i+1].CountBatch(boxes)
					for q := range want {
						if want[q] != got[q] {
							t.Fatalf("count query %d: %s %d, %s %d", q, execVariants[0].name, want[q], v.name, got[q])
						}
					}
				}

				// Associative-function mode (registered aggregate: the
				// only kind a resident tree can serve).
				wantAgg := core.PrepareAssociativeNamed[float64](base, aggregates.WeightSum).Batch(boxes)
				for i, v := range execVariants[1:] {
					got := core.PrepareAssociativeNamed[float64](trees[i+1], aggregates.WeightSum).Batch(boxes)
					for q := range wantAgg {
						if math.Abs(wantAgg[q]-got[q]) > 1e-9 {
							t.Fatalf("aggregate query %d: %s %v, %s %v", q, execVariants[0].name, wantAgg[q], v.name, got[q])
						}
					}
				}

				// Report mode.
				wantRep := base.ReportBatch(boxes)
				for i, v := range execVariants[1:] {
					got := trees[i+1].ReportBatch(boxes)
					for q := range wantRep {
						if len(wantRep[q]) != len(got[q]) {
							t.Fatalf("report query %d: %s %d points, %s %d", q, execVariants[0].name, len(wantRep[q]), v.name, len(got[q]))
						}
						for j := range wantRep[q] {
							if wantRep[q][j].ID != got[q][j].ID {
								t.Fatalf("report query %d point %d: %s id %d, %s id %d",
									q, j, execVariants[0].name, wantRep[q][j].ID, v.name, got[q][j].ID)
							}
						}
					}
				}

				for i, v := range execVariants[1:] {
					assertMetricsEqual(t, "search", execVariants[0].name, v.name,
						base.Machine().Metrics(), trees[i+1].Machine().Metrics())
				}
			})
		}
	}
}

// TestClusterStore runs the mutable store — level builds, compactions and
// mixed query batches — on every cell of the transport × residency
// matrix and asserts identical answers.
func TestClusterStore(t *testing.T) {
	pts := workload.Points(workload.PointSpec{N: 300, Dims: 2, Dist: workload.Uniform, Seed: 3})
	boxes := workload.Boxes(workload.QuerySpec{M: 16, Dims: 2, N: 300, Selectivity: 0.1, Seed: 5})
	ops := make([]core.MixedOp, len(boxes))
	for i := range ops {
		if i%2 == 1 {
			ops[i] = core.OpReport
		}
	}

	stores := make([]*store.Store, len(execVariants))
	for i, v := range execVariants {
		stores[i] = newStoreHandle(t, v.provider(t, 4), pts).st
	}

	check := func(stage string) {
		t.Helper()
		base, err := store.Mixed[struct{}](stores[0].Pin(), ops, boxes)
		if err != nil {
			t.Fatalf("%s: %s mixed: %v", stage, execVariants[0].name, err)
		}
		for i, v := range execVariants[1:] {
			got, err := store.Mixed[struct{}](stores[i+1].Pin(), ops, boxes)
			if err != nil {
				t.Fatalf("%s: %s mixed: %v", stage, v.name, err)
			}
			for q := range base {
				if base[q].Count != got[q].Count {
					t.Fatalf("%s: store mixed count %d: %s %d, %s %d", stage, q, execVariants[0].name, base[q].Count, v.name, got[q].Count)
				}
				if len(base[q].Pts) != len(got[q].Pts) {
					t.Fatalf("%s: store mixed report %d: %s %d pts, %s %d", stage, q, execVariants[0].name, len(base[q].Pts), v.name, len(got[q].Pts))
				}
			}
		}
	}
	check("seeded")

	// Mutate every store identically and compare again.
	del := pts[:40]
	for i, st := range stores {
		if _, err := st.DeleteBatch(del); err != nil {
			t.Fatalf("%s delete: %v", execVariants[i].name, err)
		}
		st.Compact()
		if cerr := st.Stats().CompactErr; cerr != "" {
			t.Fatalf("%s compaction failed: %s", execVariants[i].name, cerr)
		}
	}
	check("after-delete")
}

// storeHandle owns one ephemeral mutable store seeded with pts.
type storeHandle struct{ st *store.Store }

func newStoreHandle(t *testing.T, pv cgm.Provider, pts []geom.Point) *storeHandle {
	t.Helper()
	st, err := store.Open("", store.Config{Dims: pts[0].Dims(), Provider: pv, MemtableCap: 64, Sync: true})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	if _, err := st.InsertBatch(pts); err != nil {
		t.Fatalf("seed store: %v", err)
	}
	st.Compact()
	return &storeHandle{st: st}
}

// TestSingleWorkerCluster covers the degenerate p=1 fabric (no peer
// routing at all — the column is the own deposit).
func TestSingleWorkerCluster(t *testing.T) {
	cl := startCluster(t, 1, cgm.Config{})
	mach, err := cl.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	mach.Run(func(pr *cgm.Proc) {
		in := cgm.Exchange(pr, "self", [][]string{{"x"}})
		if len(in) != 1 || in[0][0] != "x" {
			t.Error("self-exchange wrong over tcp")
		}
	})
	if mach.Metrics().CommRounds() != 1 {
		t.Error("round not counted")
	}
}

// TestResidentBuildCoordBytesFlat pins the held construct's traffic
// claim: a resident core.BuildOn stages its input over the per-rank
// feeds and keeps every routed point and S^(j+1) record on the worker
// mesh, so the coordinator carries only O(p²) samples, splitters, stub
// metadata and control frames — doubling n must leave Cluster.CoordBytes
// within 1.10× either way.
func TestResidentBuildCoordBytesFlat(t *testing.T) {
	const p, d = 4, 3
	cl := startCluster(t, p, cgm.Config{Resident: true})
	coordBytes := func(n int) int64 {
		pts := workload.Points(workload.PointSpec{N: n, Dims: d, Dist: workload.Uniform, Seed: 5})
		out0, in0 := cl.CoordBytes()
		tree, err := core.BuildOn(cl, pts, core.BackendLayered)
		if err != nil {
			t.Fatalf("n=%d build: %v", n, err)
		}
		out1, in1 := cl.CoordBytes()
		tree.Machine().Close()
		return (out1 - out0) + (in1 - in0)
	}
	small, large := coordBytes(4000), coordBytes(8000)
	growth := float64(large) / float64(small)
	t.Logf("coordinator bytes per build: %d at n=4000, %d at n=8000 (%.3fx)", small, large, growth)
	if growth > 1.10 || growth < 1/1.10 {
		t.Fatalf("doubling n moved coordinator bytes %.3fx (%d -> %d); a resident build must not route points through the coordinator",
			growth, small, large)
	}
}
