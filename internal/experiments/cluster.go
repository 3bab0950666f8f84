package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bmac/internal/cluster"
	"bmac/internal/config"
	"bmac/internal/metrics"
)

// telemetryDir resolves where an experiment's trace files and metrics
// snapshots land: BMAC_TELEMETRY_DIR when set (the caller wants to keep
// them, e.g. as CI artifacts), otherwise the run's scratch dir.
func telemetryDir(scratch string) string {
	if d := os.Getenv("BMAC_TELEMETRY_DIR"); d != "" {
		if err := os.MkdirAll(d, 0o755); err == nil {
			return d
		}
	}
	return scratch
}

// FigCluster drives the full delivery-side stack — open-loop load ->
// raft-backed orderer -> non-blocking delivery service -> N gossip peers
// plus a BMac peer — once per software validation path, with one
// artificially slow peer. For each path it reports throughput and the
// end-to-end p50/p95/p99 commit latency measured at a fast software peer
// and at the BMac peer, plus the slow peer's backlog at the moment the
// fast peers finished (the slow-peer isolation evidence: fast lag stays
// 0 while the slow peer's lag/drops absorb its own overload).
func FigCluster(opts Options) (*metrics.Table, error) {
	o := opts.withDefaults()
	dir, err := os.MkdirTemp("", "bmac-cluster-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 8
	// Give the hybrid path something to hide: a cache smaller than the
	// account working set plus a modeled host read latency.
	cfg.StateDB.Capacity = 32
	cfg.StateDB.HostReadLatencyUS = 50
	// The telemetry plane is on for this experiment: each mode writes a
	// per-block lifecycle trace and reports its latency budget.
	cfg.Telemetry.Enabled = true
	cfg.Delivery.Window = 8
	telDir := telemetryDir(dir)

	copts := cluster.Options{
		Peers:     4,
		SlowPeers: 1,
		SlowDelay: 40 * time.Millisecond,
		BMacPeer:  true,
		Txs:       96,
		Rate:      600,
		Clients:   2,
		Accounts:  64,
		Skew:      1.1,
		Seed:      7,
	}
	if o.Quick {
		copts.Peers = 3
		copts.Txs = 32
		copts.Rate = 400
	}

	tbl := &metrics.Table{Header: []string{
		"path", "peers", "blocks", "txs", "valid", "tps",
		"p50", "p95", "p99", "hw_p99", "slow_lag", "slow_drop", "fast_lag",
		"sig$%", "parse$%",
	}}
	var metricsText string
	for _, mode := range cluster.Modes() {
		copts.Mode = mode
		cfg.Telemetry.TraceFile = filepath.Join(telDir, "cluster_"+mode+"_trace.jsonl")
		res, err := cluster.Run(cfg, copts, fmt.Sprintf("%s/%s", dir, mode))
		if err != nil {
			return nil, fmt.Errorf("cluster %s: %w", mode, err)
		}
		metricsText = res.MetricsText
		var slowLag, slowDrop, fastLag uint64
		for _, p := range res.Peers {
			if p.Slow {
				slowLag += p.Delivery.Lag
				slowDrop += p.Delivery.Dropped
			} else if p.Delivery.Lag > fastLag {
				fastLag = p.Delivery.Lag
			}
		}
		tbl.AddRow(
			mode,
			fmt.Sprintf("%d", copts.Peers),
			fmt.Sprintf("%d", res.Blocks),
			fmt.Sprintf("%d", res.Txs),
			fmt.Sprintf("%d", res.ValidTxs),
			metrics.FormatTPS(res.TPS),
			fmt.Sprintf("%v", res.SWLatency.P50.Round(time.Microsecond)),
			fmt.Sprintf("%v", res.SWLatency.P95.Round(time.Microsecond)),
			fmt.Sprintf("%v", res.SWLatency.P99.Round(time.Microsecond)),
			fmt.Sprintf("%v", res.HWLatency.P99.Round(time.Microsecond)),
			fmt.Sprintf("%d", slowLag),
			fmt.Sprintf("%d", slowDrop),
			fmt.Sprintf("%d", fastLag),
			fmt.Sprintf("%.0f%%", res.SigCacheHitRate*100),
			fmt.Sprintf("%.0f%%", res.ParseCacheHitRate*100),
		)
		tbl.AddNote("[%s] %d trace events -> %s\n%s", mode, res.TraceEvents, res.TraceFile, res.Budget)
	}
	// Final registry snapshot (counters accumulate across the three modes).
	if metricsText != "" {
		snap := filepath.Join(telDir, "cluster_metrics.prom")
		if err := os.WriteFile(snap, []byte(metricsText), 0o644); err != nil {
			return nil, fmt.Errorf("cluster: metrics snapshot: %w", err)
		}
	}
	return tbl, nil
}
