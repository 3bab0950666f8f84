package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"bmac/internal/cluster"
	"bmac/internal/config"
	"bmac/internal/metrics"
)

// FigChurn drives the peer-churn scenario once per software validation
// path: the open-loop load runs through the raft-backed orderer and the
// delivery service while one fast peer is killed mid-run, restarted from
// its checkpoint + ledger replay, and caught up through the orderer's
// ledger-backed delivery source. Per path it reports where the kill and
// the recovery happened, how many blocks the restarted peer streamed from
// the ledger (catch_up > 0 proves the window had moved on), and whether
// every fast peer — including the one that died — finished with an
// identical ledger height, state hash and commit-hash chain (converged).
func FigChurn(opts Options) (*metrics.Table, error) {
	o := opts.withDefaults()
	dir, err := os.MkdirTemp("", "bmac-churn-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 4 // many small blocks, so the window moves on
	cfg.Durability.CheckpointEvery = 4
	cfg.Delivery.Window = 4
	cfg.Telemetry.Enabled = true
	telDir := telemetryDir(dir)

	copts := cluster.Options{
		Peers:      3,
		Txs:        96,
		Rate:       900, // paced, so the kill lands mid-submission
		Clients:    2,
		Accounts:   48,
		Seed:       19,
		Churn:      true,
		ChurnAfter: 2,
	}
	if o.Quick {
		copts.Txs = 48
	}

	tbl := &metrics.Table{Header: []string{
		"path", "blocks", "txs", "tps",
		"kill_height", "recovered_at", "catch_up", "restarts", "converged",
	}}
	var metricsText string
	for _, mode := range cluster.Modes() {
		copts.Mode = mode
		cfg.Telemetry.TraceFile = filepath.Join(telDir, "churn_"+mode+"_trace.jsonl")
		res, err := cluster.Run(cfg, copts, fmt.Sprintf("%s/%s", dir, mode))
		if err != nil {
			return nil, fmt.Errorf("churn %s: %w", mode, err)
		}
		metricsText = res.MetricsText
		if res.Churn == nil {
			return nil, fmt.Errorf("churn %s: no churn report", mode)
		}
		tbl.AddRow(
			mode,
			fmt.Sprintf("%d", res.Blocks),
			fmt.Sprintf("%d", res.Txs),
			metrics.FormatTPS(res.TPS),
			fmt.Sprintf("%d", res.Churn.KillHeight),
			fmt.Sprintf("%d", res.Churn.RecoveredAt),
			fmt.Sprintf("%d", res.Churn.CaughtUp),
			fmt.Sprintf("%d", res.Churn.Restarts),
			fmt.Sprintf("%v", res.Converged),
		)
		tbl.AddNote("[%s] %d trace events -> %s\n%s", mode, res.TraceEvents, res.TraceFile, res.Budget)
		if !res.Converged {
			return tbl, fmt.Errorf("churn %s: peers did not converge after restart", mode)
		}
	}
	if metricsText != "" {
		snap := filepath.Join(telDir, "churn_metrics.prom")
		if err := os.WriteFile(snap, []byte(metricsText), 0o644); err != nil {
			return nil, fmt.Errorf("churn: metrics snapshot: %w", err)
		}
	}
	return tbl, nil
}
