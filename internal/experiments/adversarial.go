package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bmac/internal/chaos"
	"bmac/internal/cluster"
	"bmac/internal/config"
	"bmac/internal/metrics"
)

// floodGateRounds is how many baseline/flood pairs the goodput gate runs.
const floodGateRounds = 3

// validTPS is the honest-goodput figure the adversarial gate compares:
// validated transactions per second up to the moment every honest
// submission had committed. Hostile flag-invalidated traffic never counts
// as throughput, and trailing hostile-only batches (cut on the batch
// timer after the honest load finished) never count as elapsed time.
func validTPS(res *cluster.Result) float64 {
	if res.HonestElapsed <= 0 {
		return 0
	}
	return metrics.Throughput(res.ValidTxs, res.HonestElapsed)
}

// FigAdversarial is the hostile-conditions acceptance suite. It runs the
// sequential-path cluster four ways and gates on each:
//
//   - baseline: honest load only, establishing the valid-tx TPS floor;
//   - flood: 50% of all traffic is adversarial (invalid signatures,
//     garbage envelopes, forged endorsements, replayed double-spends).
//     Valid-tx TPS must stay >= 70% of the baseline (best of
//     floodGateRounds alternating runs each) — the cheapness of
//     rejection rests on fabcrypto.SigCache caching verification
//     failures, so every flood run must also show signature-cache hits;
//   - each chaos fault (partition, corruption, slowdisk, leaderkill)
//     under a milder 20% adversary: the fast peers must still end
//     bit-identical (converged), with the p99 commit latency reported.
//
// Any violated gate is returned as an error, so `bmacbench -exp
// adversarial` is red in CI when hostile conditions break the cluster.
func FigAdversarial(opts Options) (*metrics.Table, error) {
	o := opts.withDefaults()
	dir, err := os.MkdirTemp("", "bmac-adversarial-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The flood gate runs with the default (timer-cut) block size: hostile
	// envelopes then ride inside the same blocks as honest traffic and the
	// comparison measures validation cost, not per-block consensus
	// overhead. The fault loop shrinks blocks below so faults land
	// mid-stream.
	cfg := config.Default()
	cfg.Durability.CheckpointEvery = 4
	cfg.Delivery.Window = 8
	cfg.Telemetry.Enabled = true
	telDir := telemetryDir(dir)

	base := cluster.Options{
		Mode:     cluster.Sequential,
		Peers:    3,
		Txs:      160,
		Clients:  2,
		Accounts: 64,
		Seed:     47,
		Timeout:  90 * time.Second,
	}
	if o.Quick {
		base.Txs = 64
	}

	tbl := &metrics.Table{Header: []string{
		"scenario", "adversary", "blocks", "txs", "valid", "hostile",
		"rejected", "tps", "valid_tps", "p99", "sig$%", "converged",
	}}
	var metricsText string
	run := func(scenario string, copts cluster.Options) (*cluster.Result, error) {
		cfg.Telemetry.TraceFile = filepath.Join(telDir, "adversarial_"+scenario+"_trace.jsonl")
		res, err := cluster.Run(cfg, copts, filepath.Join(dir, scenario))
		if err != nil {
			return nil, fmt.Errorf("adversarial %s: %w", scenario, err)
		}
		metricsText = res.MetricsText
		hostile, rejected := int64(0), 0
		if res.Adversary != nil {
			hostile = res.Adversary.Injected.Total()
			rejected = res.Adversary.RejectedInvalid
		}
		tbl.AddRow(
			scenario,
			fmt.Sprintf("%.0f%%", copts.Adversary*100),
			fmt.Sprintf("%d", res.Blocks),
			fmt.Sprintf("%d", res.Txs),
			fmt.Sprintf("%d", res.ValidTxs),
			fmt.Sprintf("%d", hostile),
			fmt.Sprintf("%d", rejected),
			metrics.FormatTPS(res.TPS),
			metrics.FormatTPS(validTPS(res)),
			fmt.Sprintf("%v", res.SWLatency.P99.Round(time.Microsecond)),
			fmt.Sprintf("%.0f%%", res.SigCacheHitRate*100),
			fmt.Sprintf("%v", res.Converged),
		)
		if !res.Converged {
			return res, fmt.Errorf("adversarial %s: fast peers did not converge", scenario)
		}
		return res, nil
	}

	// Gate 1: honest-goodput floor under a 50% hostile flood. Baseline and
	// flood runs alternate round by round, each mode keeping its best
	// valid-tx TPS, so load drift on a shared machine hits both modes
	// alike instead of deciding the ratio.
	flood := base
	flood.Adversary = 0.5
	var baseTPS, floodTPS float64
	for r := 1; r <= floodGateRounds; r++ {
		baseline, err := run(fmt.Sprintf("baseline-r%d", r), base)
		if err != nil {
			return tbl, err
		}
		baseTPS = max(baseTPS, validTPS(baseline))
		floodRes, err := run(fmt.Sprintf("flood-r%d", r), flood)
		if err != nil {
			return tbl, err
		}
		if floodRes.Adversary == nil || floodRes.Adversary.Injected.Total() == 0 {
			return tbl, fmt.Errorf("adversarial flood: nothing injected")
		}
		// The flood stays cheap because rejection is O(lookup): the pooled
		// hostile corpora must be hitting the signature cache's failure
		// entries, not re-running curve math per replayed envelope.
		if floodRes.SigCacheHitRate == 0 {
			return tbl, fmt.Errorf("adversarial flood: no signature-cache hits — failure caching is not absorbing the flood")
		}
		floodTPS = max(floodTPS, validTPS(floodRes))
	}
	// The 70% floor is a performance gate. Under the race detector the
	// instrumentation multiplies validation cost, which skews the
	// hostile/baseline goodput ratio, so the floor drops to 40% there —
	// still catching O(n)-rejection regressions without flaking the
	// race shard.
	factor := 0.7
	if raceEnabled {
		factor = 0.4
	}
	if floodTPS < factor*baseTPS {
		return tbl, fmt.Errorf("adversarial flood: valid-tx TPS %.0f under 50%% hostile load, want >= %.0f%% of baseline %.0f",
			floodTPS, factor*100, baseTPS)
	}

	// Gate 2: every chaos fault converges bit-identically under a mild
	// adversary riding along. Many small blocks, so the fault strikes
	// mid-stream and the delivery window moves on during a partition.
	cfg.Arch.MaxBlockTxs = 4
	for _, fault := range chaos.Faults() {
		copts := base
		copts.Adversary = 0.2
		copts.Fault = fault
		copts.FaultAfter = 2
		copts.Rate = 900 // paced, so the fault lands mid-submission
		cfg.Delivery.Window = 8
		switch fault {
		case chaos.FaultPartition:
			cfg.Delivery.Window = 4 // force the victim past the retained window
		case chaos.FaultSlowDisk:
			copts.Rate = 0
		case chaos.FaultLeaderKill:
			copts.Peers = 2
			copts.RaftNodes = 3
		}
		if _, err := run("fault-"+fault, copts); err != nil {
			return tbl, err
		}
	}

	// Final registry snapshot (counters accumulate across the scenarios).
	if metricsText != "" {
		snap := filepath.Join(telDir, "adversarial_metrics.prom")
		if err := os.WriteFile(snap, []byte(metricsText), 0o644); err != nil {
			return tbl, fmt.Errorf("adversarial: metrics snapshot: %w", err)
		}
	}
	return tbl, nil
}
