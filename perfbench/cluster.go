package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bmac/internal/cluster"
	"bmac/internal/config"
	"bmac/internal/load"
)

// clusterWorkload repeats open-loop cluster runs for --seconds. It is not
// a workload of BENCHMARK.json: the endorser race aborts a load client in
// some runs and not in others, so its failure count differs from one run
// of the same code to the next. Run it by hand to see the race and the
// cluster's latency; it reports the same metrics with --trace 0 and 1.
const clusterWorkload = "cluster-open"

var clusterOpenSpec = clusterSpec{Rate: 600, Txs: 1000, Accounts: 100, Clients: 2}

// clusterSpec is an open-loop cluster workload: the bmacnet -cluster
// defaults (1-node raft, 100 smallbank accounts, two clients) with three
// sequential software peers plus the BMac peer, no slow peers and the
// telemetry plane off.
type clusterSpec struct {
	Rate     float64 // aggregate Poisson arrival rate, tx/s
	Txs      int     // transactions requested per cluster run
	Accounts int
	Clients  int
}

// clusterRun is one bmac.RunCluster call. A run that returns an error
// still keeps its partial result: a load client aborted by the endorser
// race is counted as failed transactions, never retried.
type clusterRun struct {
	requested int
	wall      time.Duration
	cpu       time.Duration // process CPU time of the whole call
	res       *cluster.Result
	err       error
}

// setup is RunCluster's wall time outside the measured load interval.
func (r clusterRun) setup() time.Duration { return r.wall - r.res.Elapsed }

// goodput is valid tx/s committed at the observer peer.
func (r clusterRun) goodput() float64 { return float64(r.res.ValidTxs) / r.res.Elapsed.Seconds() }

// failures splits the requested transactions that did not make it: never
// submitted (aborted load client), not committed at the observer, and
// committed without a BMac result. A run with no result fails them all.
func (r clusterRun) failures() (aborted, uncommitted, missingBMac int) {
	if r.res == nil {
		return r.requested, 0, 0
	}
	aborted = max(0, r.requested-r.res.Submitted)
	uncommitted = max(0, r.res.Submitted-r.res.Txs)
	missingBMac = max(0, r.res.Txs-r.res.HWLatency.Count)
	return
}

// runCluster executes one cluster run with ledgers under dir.
func runCluster(spec clusterSpec, seed int64, dir string, tr *tracer) clusterRun {
	defer os.RemoveAll(dir) // scratch space; removal is best effort
	opts := cluster.Options{
		Mode:      cluster.Sequential,
		Peers:     3,
		BMacPeer:  true,
		RaftNodes: 1,
		Txs:       spec.Txs,
		Rate:      spec.Rate,
		Arrival:   load.Poisson,
		Clients:   spec.Clients,
		Accounts:  spec.Accounts,
		Seed:      seed,
		Timeout:   60 * time.Second,
	}
	sp := tr.begin("cluster.run", 0, -1)
	c, t := cpuTime(), time.Now()
	res, err := cluster.Run(config.Default(), opts, dir)
	r := clusterRun{requested: spec.Txs, wall: time.Since(t), cpu: cpuTime() - c, res: res, err: err}
	tr.end(sp)
	return r
}

// check reports a run whose fast peers did not converge.
func (r clusterRun) check() error {
	if r.res != nil && !r.res.Converged {
		return fmt.Errorf("%w: cluster peers did not converge", errMismatch)
	}
	return nil
}

// clusterOpen makes cluster runs until --seconds have passed, at least
// one.
func (b *bench) clusterOpen() error {
	deadline := time.Now().Add(b.budget)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		if err := b.cluster(k); err != nil {
			return err
		}
	}
	return nil
}

// cluster makes the k-th open-loop cluster run.
func (b *bench) cluster(k int) error {
	runtime.GC()
	r := runCluster(clusterOpenSpec, subSeed(b.seed, 2, k), filepath.Join(b.scratch, "cluster"), b.tr)
	b.clusters = append(b.clusters, r)
	aborted, uncommitted, missing := r.failures()
	if r.res == nil {
		fmt.Fprintf(b.out, "cluster %d: no result: %v\n", k, r.err)
		return nil
	}
	fmt.Fprintf(b.out, "cluster %d: goodput %.1f tx/s, p50 %.2fms, p99 %.2fms (n=%d), %.1f CPU-us/tx, late %d, aborted %d, uncommitted %d, missing bmac %d, converged %v, err %v\n",
		k, r.goodput(), ms(r.res.SWLatency.P50), ms(r.res.SWLatency.P99), r.res.SWLatency.Count,
		perUnit(r.cpu, max(r.res.Txs, 1), time.Microsecond),
		r.res.Late, aborted, uncommitted, missing, r.res.Converged, r.err)
	return r.check()
}

// clusterMetrics computes the cluster-open run's metrics.
func (b *bench) clusterMetrics(attempted, failed int) error {
	var cpu time.Duration
	var txs int
	for _, r := range b.clusters {
		if r.res != nil {
			cpu += r.cpu
			txs += r.res.Txs
		}
	}
	if txs == 0 {
		return fmt.Errorf("no cluster run committed a transaction")
	}
	b.put("cluster.cpu_us_per_tx", perUnit(cpu, txs, time.Microsecond), "us")
	b.put("tx_failed_ratio", failedRatio(failed, attempted), "ratio")
	b.clusterLayers()
	return nil
}

// clusterLayers reads the counters the cluster runs already return.
func (b *bench) clusterLayers() {
	var submitted, late, aborted, txs, blocks, obsTxs, redials int
	var obsBytes int64
	var maxLag uint64
	var setup, sigHit, goodput, p50, p99 []float64
	for _, r := range b.clusters {
		a, _, _ := r.failures()
		aborted += a
		if r.res == nil {
			continue
		}
		submitted += r.res.Submitted
		late += r.res.Late
		txs += r.res.Txs
		blocks += r.res.Blocks
		setup = append(setup, r.setup().Seconds())
		sigHit = append(sigHit, r.res.SigCacheHitRate)
		goodput = append(goodput, r.goodput())
		p50 = append(p50, ms(r.res.SWLatency.P50))
		p99 = append(p99, ms(r.res.SWLatency.P99))
		maxLag = max(maxLag, r.res.BMacDelivery.Lag)
		redials += r.res.BMacDelivery.Redials
		for i, p := range r.res.Peers {
			maxLag = max(maxLag, p.Delivery.Lag)
			redials += p.Delivery.Redials
			if i == 0 {
				obsBytes += p.Delivery.Bytes
				obsTxs += p.Txs
			}
		}
	}
	b.put("load.late_ratio", ratio(late, submitted), "ratio")
	b.put("load.aborted_txs", float64(aborted), "count")
	b.put("orderer.txs_per_block", ratio(txs, blocks), "count")
	b.put("delivery.bytes_per_tx", ratio(int(obsBytes), obsTxs), "B")
	b.put("delivery.max_lag_blocks", float64(maxLag), "count")
	b.put("delivery.redials", float64(redials), "count")
	b.put("cluster.goodput_tps", median(goodput), "tx/s")
	b.put("cluster.p50_ms", median(p50), "ms")
	b.put("cluster.p99_ms", median(p99), "ms")
	b.put("cluster.setup_s", median(setup), "s")
	b.put("cluster.sig_hit_ratio", median(sigHit), "ratio")
}
