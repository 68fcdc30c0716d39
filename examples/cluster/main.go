// Cluster: the multicomputer as real processes — the same distributed
// range tree built and served twice, once on the in-process loopback
// simulator and once on four TCP worker processes, with every answer
// and every machine metric (communication rounds, per-round h) checked
// to be identical.
//
// The workers here run in-process for a self-contained example; in a
// real deployment each is its own OS process:
//
//	rangeworker -listen 127.0.0.1:9101 &   # … one per rank …
//	rangesearch -n 8192 -d 2 -mode serve \
//	    -workers 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103,127.0.0.1:9104
//
// The walkthrough: start workers → dial the cluster → build the tree
// over TCP → batch queries in all three modes → serve single queries
// through the micro-batching engine → tear everything down.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	const (
		p = 4
		n = 1 << 11
		m = 64
	)
	pts := drtree.GeneratePoints(drtree.PointSpec{N: n, Dims: 2, Dist: drtree.Clustered, Seed: 42})
	boxes := drtree.GenerateBoxes(drtree.QuerySpec{M: m, Dims: 2, N: n, Selectivity: 0.02, Seed: 7})

	// The loopback twin: the simulator every other example uses.
	loopMach := drtree.NewMachine(drtree.MachineConfig{P: p})
	loopTree := drtree.BuildDistributed(loopMach, pts)

	// Step 1: start p workers (each the in-process equivalent of one
	// `rangeworker -listen …` process) and dial them.
	workers := make([]*drtree.ClusterWorker, p)
	addrs := make([]string, p)
	for i := range workers {
		w, err := drtree.StartWorker("127.0.0.1:0")
		if err != nil {
			log.Fatalf("starting worker %d: %v", i, err)
		}
		defer w.Close()
		workers[i] = w
		addrs[i] = w.Addr()
	}
	cluster, err := drtree.DialCluster(addrs, drtree.MachineConfig{})
	if err != nil {
		log.Fatalf("dialing cluster: %v", err)
	}
	defer cluster.Close()
	fmt.Printf("cluster: %d workers on %v\n", cluster.P(), addrs)

	// Step 2: run Algorithm Construct over TCP — every sort, route and
	// broadcast superstep physically crosses the worker mesh.
	tcpTree, err := drtree.BuildDistributedOn(cluster, pts)
	if err != nil {
		log.Fatalf("cluster build: %v", err)
	}
	lb, tb := loopMach.Metrics(), tcpTree.Machine().Metrics()
	fmt.Printf("construct: loopback %d rounds (max h %d) | tcp %d rounds (max h %d)\n",
		lb.CommRounds(), lb.MaxH(), tb.CommRounds(), tb.MaxH())
	if lb.CommRounds() != tb.CommRounds() || lb.MaxH() != tb.MaxH() {
		log.Fatal("transport changed the construction metrics — equivalence broken")
	}
	loopMach.ResetMetrics()
	tcpTree.Machine().ResetMetrics()

	// Step 3: the three §4.2 result modes, answers compared one-to-one.
	counts, tcpCounts := loopTree.CountBatch(boxes), tcpTree.CountBatch(boxes)
	reports, tcpReports := loopTree.ReportBatch(boxes), tcpTree.ReportBatch(boxes)
	total, k := int64(0), 0
	for i := range boxes {
		if counts[i] != tcpCounts[i] || len(reports[i]) != len(tcpReports[i]) {
			log.Fatalf("query %d diverges across transports", i)
		}
		total += counts[i]
		k += len(reports[i])
	}
	ls, ts := loopMach.Metrics(), tcpTree.Machine().Metrics()
	fmt.Printf("search: %d queries, %d matches, k=%d pairs | loopback %d rounds ≡ tcp %d rounds, max h %d ≡ %d\n",
		m, total, k, ls.CommRounds(), ts.CommRounds(), ls.MaxH(), ts.MaxH())
	if ls.CommRounds() != ts.CommRounds() || ls.MaxH() != ts.MaxH() {
		log.Fatal("transport changed the search metrics — equivalence broken")
	}

	// Step 4: serve single queries from the cluster through the engine
	// (what `rangesearch -mode serve -workers …` does line by line).
	engTree, err := drtree.BuildDistributedOn(cluster, pts)
	if err != nil {
		log.Fatalf("cluster build for the engine: %v", err)
	}
	eng := drtree.NewEngine(engTree, drtree.EngineConfig{BatchSize: 16})
	defer eng.Close()
	hits := int64(0)
	for _, b := range boxes[:16] {
		c, err := eng.Count(b)
		if err != nil {
			log.Fatalf("engine count: %v", err)
		}
		hits += c
	}
	st := eng.Stats()
	fmt.Printf("engine over tcp: %d queries in %d machine batches, %d matches\n",
		st.Submitted, st.Batches, hits)

	// Step 5: the same cluster, worker-RESIDENT: a second dial with
	// Resident set makes every machine execute the registered SPMD
	// programs against worker memory. The build stages the canonical n/p
	// blocks over per-rank feeds and runs every construct phase held, so
	// the forest builds into and serves from the worker processes, and
	// neither routed points nor phase-B/C blocks transit the coordinator.
	// Answers and metrics must still be identical.
	resCluster, err := drtree.DialCluster(addrs, drtree.MachineConfig{Resident: true})
	if err != nil {
		log.Fatalf("dialing resident cluster: %v", err)
	}
	defer resCluster.Close()
	resTree, err := drtree.BuildDistributedOn(resCluster, pts)
	if err != nil {
		log.Fatalf("resident cluster build: %v", err)
	}
	resTree.Machine().ResetMetrics()
	resCounts := resTree.CountBatch(boxes)
	for i := range boxes {
		if counts[i] != resCounts[i] {
			log.Fatalf("query %d diverges under residency", i)
		}
	}
	rs := resTree.Machine().Metrics()
	out, in := resCluster.CoordBytes()
	fmt.Printf("resident: %d rounds ≡ loopback's count rounds, forest in worker memory, coordinator moved %d B total\n",
		rs.CommRounds(), out+in)

	// Step 6: the health plane (what `rangesearch -workers …` wires up and
	// `rangesearch -mode top` renders). Each worker beacons its liveness
	// and a registry dump; the monitor ages silent ranks healthy → suspect
	// → down and archives the transitions as structured events.
	evlog, err := drtree.OpenClusterEvents("", 0) // "" = in-memory archive
	if err != nil {
		log.Fatalf("event log: %v", err)
	}
	defer evlog.Close()
	const beat = 25 * time.Millisecond
	mon := drtree.NewClusterMonitor(drtree.ClusterMonitorConfig{Addrs: addrs, Interval: beat, Events: evlog})
	defer mon.Close()
	watch := drtree.WatchClusterHealth(addrs, beat, mon)
	defer watch.Close()
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(beat / 5) {
			if time.Now().After(deadline) {
				log.Fatalf("health plane: timed out waiting for %s", what)
			}
		}
	}
	waitFor("all workers healthy", mon.AllHealthy)
	fmt.Printf("health: %d/%d workers beaconing every %v\n", mon.P(), p, beat)

	// Kill the last worker and watch the state machine notice: suspect on
	// the broken stream, down after the missed-beacon threshold.
	workers[p-1].Close()
	waitFor("rank 3 down", func() bool { return mon.StateOf(p-1) == drtree.WorkerDown })
	downAt := -1
	for i, ev := range evlog.Recent(16) {
		if ev.Kind == "worker_down" && ev.Rank == p-1 {
			downAt = i
		}
	}
	if downAt < 0 {
		log.Fatal("health plane: worker_down missing from the event archive")
	}
	fmt.Printf("health: rank %d aged to %s, archived as worker_down\n", p-1, mon.StateOf(p-1))
	fmt.Println("loopback, TCP-fabric and TCP-resident agree on every answer and every metric")
}
