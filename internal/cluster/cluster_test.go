package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bmac/internal/config"
	"bmac/internal/telemetry"
)

func testConfig() *config.Config {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 6 // several blocks per run
	return cfg
}

// TestSlowPeerIsolation is the acceptance check of the delivery
// subsystem: with one artificially slow peer among fast ones, the fast
// peers' delivery is unaffected (zero lag when the observer finishes)
// while the slow peer's own backlog shows up as lag/drops, and every
// submitted transaction gets an end-to-end latency sample.
func TestSlowPeerIsolation(t *testing.T) {
	cfg := testConfig()
	cfg.Delivery.Window = 4
	res, err := Run(cfg, Options{
		Mode:      Sequential,
		Peers:     3,
		SlowPeers: 1,
		SlowDelay: 100 * time.Millisecond,
		Txs:       24,
		Clients:   2,
		Seed:      11,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Txs != 24 || res.Submitted != 24 {
		t.Fatalf("committed %d/%d txs at the observer", res.Txs, res.Submitted)
	}
	if res.Blocks < 2 {
		t.Fatalf("only %d blocks", res.Blocks)
	}
	if res.SWLatency.Count != 24 || res.SWLatency.P99 <= 0 {
		t.Errorf("latency summary %+v, want 24 samples", res.SWLatency)
	}
	slow, fast := 0, 0
	for _, p := range res.Peers {
		if p.Slow {
			slow++
			if p.Delivery.Lag+p.Delivery.Dropped == 0 {
				t.Errorf("slow peer %s shows no backlog: %+v", p.Name, p.Delivery)
			}
		} else {
			fast++
			if p.Delivery.Lag != 0 {
				t.Errorf("fast peer %s lagging %d blocks behind a slow sibling: isolation broken",
					p.Name, p.Delivery.Lag)
			}
			if p.Delivery.Err != nil {
				t.Errorf("fast peer %s pipe error: %v", p.Name, p.Delivery.Err)
			}
			if p.Blocks != res.Blocks {
				t.Errorf("fast peer %s committed %d/%d blocks", p.Name, p.Blocks, res.Blocks)
			}
		}
	}
	if slow != 1 || fast != 2 {
		t.Fatalf("peer mix slow=%d fast=%d", slow, fast)
	}
}

// TestThreeNodeRaftOrdering drives the full stack over a 3-node Raft
// ordering service with leader submit: the observer peer's in-order
// commit check (inside commitLoop) proves every block arrives exactly
// once and in sequence, and every submitted transaction commits.
func TestThreeNodeRaftOrdering(t *testing.T) {
	res, err := Run(testConfig(), Options{
		Mode:      Sequential,
		Peers:     2,
		RaftNodes: 3,
		Txs:       18,
		Clients:   2,
		Seed:      13,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.RaftNodes != 3 {
		t.Fatalf("raft nodes = %d", res.RaftNodes)
	}
	if res.Txs != 18 {
		t.Fatalf("committed %d/18 txs", res.Txs)
	}
	for _, p := range res.Peers {
		if p.Blocks != res.Blocks || p.Txs != res.Txs {
			t.Errorf("peer %s committed %d blocks / %d txs, observer saw %d/%d",
				p.Name, p.Blocks, p.Txs, res.Blocks, res.Txs)
		}
	}
}

// TestPipelinedAndHybridPaths smoke-runs the two parallel validation
// paths end to end through the delivery service.
func TestPipelinedAndHybridPaths(t *testing.T) {
	for _, mode := range []string{Pipelined, Hybrid} {
		t.Run(mode, func(t *testing.T) {
			cfg := testConfig()
			cfg.StateDB.Capacity = 16
			cfg.StateDB.HostReadLatencyUS = 20
			res, err := Run(cfg, Options{
				Mode:    mode,
				Peers:   2,
				Txs:     12,
				Clients: 1,
				Seed:    17,
			}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.Txs != 12 {
				t.Fatalf("committed %d/12 txs", res.Txs)
			}
			if res.ValidTxs == 0 {
				t.Error("no valid transactions committed")
			}
		})
	}
}

// TestBMacPathLatency includes the hardware peer and checks the second
// observation point produces its own tail-latency digest.
func TestBMacPathLatency(t *testing.T) {
	res, err := Run(testConfig(), Options{
		Mode:     Sequential,
		Peers:    2,
		BMacPeer: true,
		Txs:      12,
		Clients:  1,
		Seed:     19,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.HWLatency.Count != 12 {
		t.Errorf("hardware path recorded %d latency samples, want 12", res.HWLatency.Count)
	}
	if res.BMacDelivery.Name != "bmac" || res.BMacDelivery.Err != nil {
		t.Errorf("bmac delivery stats %+v", res.BMacDelivery)
	}
	if res.BMacDelivery.Blocks == 0 && res.BMacDelivery.Lag == 0 {
		t.Error("bmac pipe shows no traffic")
	}
}

func TestRejectsBadModeAndPeerMix(t *testing.T) {
	if _, err := Run(testConfig(), Options{Mode: "warp", Txs: 4}, t.TempDir()); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := Run(testConfig(), Options{Peers: 2, SlowPeers: 2, Txs: 4}, t.TempDir()); err == nil {
		t.Error("all-slow peer mix accepted")
	}
}

// TestChurnConvergence is the acceptance check of the durability
// subsystem: a fast peer is killed mid-run after a few committed blocks,
// restarted from its genesis/periodic checkpoints plus ledger replay,
// caught up through the orderer's ledger-backed delivery source, and must
// finish bit-identical — same height, state hash and commit-hash chain —
// to the peers that never died.
func TestChurnConvergence(t *testing.T) {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 4 // many small blocks, so the window moves on
	cfg.Durability.CheckpointEvery = 3
	cfg.Delivery.Window = 4
	res, err := Run(cfg, Options{
		Mode:       Sequential,
		Peers:      3,
		SlowPeers:  0,
		Txs:        80,
		Rate:       900, // paced, so the kill lands mid-submission
		Clients:    2,
		Churn:      true,
		ChurnAfter: 2,
		Seed:       17,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Churn == nil {
		t.Fatal("no churn report")
	}
	if res.Churn.Restarts != 1 {
		t.Errorf("churned peer restarted %d times, want 1", res.Churn.Restarts)
	}
	if res.Churn.RecoveredAt == 0 || res.Churn.RecoveredAt > res.Churn.KillHeight {
		t.Errorf("recovered at height %d after a kill at %d", res.Churn.RecoveredAt, res.Churn.KillHeight)
	}
	if !res.Converged {
		for _, p := range res.Peers {
			t.Logf("%s: height %d state %.16s commit %.16s restarts %d",
				p.Name, p.Height, p.StateHash, p.CommitHash, p.Restarts)
		}
		t.Fatal("peers did not converge after churn")
	}
	var churned *PeerReport
	for i := range res.Peers {
		if res.Peers[i].Restarts > 0 {
			churned = &res.Peers[i]
		}
	}
	if churned == nil {
		t.Fatal("no peer reports a restart")
	}
	if churned.Name == res.Peers[0].Name {
		t.Fatal("the observer must never churn")
	}
	if churned.StateHash != res.Peers[0].StateHash {
		t.Errorf("churned peer state hash %.16s != observer %.16s", churned.StateHash, res.Peers[0].StateHash)
	}
	if churned.Height != res.Peers[0].Height {
		t.Errorf("churned peer height %d != observer %d", churned.Height, res.Peers[0].Height)
	}
	if churned.Txs != res.Submitted {
		t.Errorf("churned peer committed %d/%d txs across its two lives", churned.Txs, res.Submitted)
	}
	// The restart waited until the cursor fell off the window, so part of
	// the lost range must have been streamed from the orderer's ledger.
	if churned.Delivery.CaughtUp == 0 {
		t.Errorf("churned peer caught up without the ledger source: %+v (kill %d, recovered %d)",
			churned.Delivery, res.Churn.KillHeight, res.Churn.RecoveredAt)
	}
}

// TestChurnPipelinedPath runs the churn scenario over the parallel
// pipelined commit engine, proving recovery is backend- and
// engine-agnostic.
func TestChurnPipelinedPath(t *testing.T) {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 4
	cfg.Durability.CheckpointEvery = 4
	cfg.Delivery.Window = 4
	res, err := Run(cfg, Options{
		Mode:    Pipelined,
		Peers:   3,
		Txs:     48,
		Rate:    900,
		Clients: 2,
		Churn:   true,
		Seed:    23,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("pipelined peers did not converge after churn")
	}
	if res.Churn == nil || res.Churn.Restarts != 1 {
		t.Fatalf("churn report %+v", res.Churn)
	}
}

// TestChurnRejectsTooFewFastPeers pins the option validation: the
// observer must survive, so churn needs a second fast peer.
func TestChurnRejectsTooFewFastPeers(t *testing.T) {
	_, err := Run(testConfig(), Options{
		Mode:      Sequential,
		Peers:     2,
		SlowPeers: 1,
		Churn:     true,
		Txs:       6,
	}, t.TempDir())
	if err == nil {
		t.Fatal("churn with a single fast peer accepted")
	}
}

// TestTelemetryTrace runs a small cluster with the telemetry plane on and
// checks the acceptance contract of the flight recorder: every committed
// block has a lifecycle trace, the per-stage spans cover >= 90% of summed
// end-to-end latency, the JSONL trace file parses back, and the registry
// exposition carries the retargeted subsystem metrics.
func TestTelemetryTrace(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.Telemetry.Enabled = true
	cfg.Telemetry.TraceFile = filepath.Join(dir, "trace.jsonl")
	res, err := Run(cfg, Options{
		Mode:    Sequential,
		Peers:   2,
		Txs:     24,
		Clients: 2,
		Seed:    7,
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Txs != 24 {
		t.Fatalf("committed %d/24 txs", res.Txs)
	}
	if res.Budget == nil {
		t.Fatal("telemetry on but no latency budget")
	}
	if res.Budget.Blocks != res.Blocks {
		t.Errorf("budget covers %d blocks, observer committed %d", res.Budget.Blocks, res.Blocks)
	}
	if res.Budget.Coverage < 0.9 {
		t.Errorf("stage spans cover %.1f%% of e2e latency, want >= 90%%\n%s",
			100*res.Budget.Coverage, res.Budget)
	}
	known := make(map[string]bool)
	for _, st := range telemetry.Stages() {
		known[st] = true
	}
	stages := make(map[string]bool, len(res.Budget.Stages))
	for _, s := range res.Budget.Stages {
		stages[s.Stage] = true
		if !known[s.Stage] {
			t.Errorf("budget has unknown stage %q", s.Stage)
		}
	}
	// Zero-total stages are omitted (submit is ~0 without pacing, prefetch
	// is 0 on the sequential path); these are structurally nonzero here.
	for _, want := range []string{telemetry.StageEndorse, telemetry.StageOrder, telemetry.StageVSCC} {
		if !stages[want] {
			t.Errorf("budget is missing stage %q\n%s", want, res.Budget)
		}
	}
	if res.TraceEvents == 0 {
		t.Error("no trace events recorded")
	}
	if res.TraceFile == "" {
		t.Fatal("trace file not written")
	}
	data, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		lines++
	}
	if lines != res.TraceEvents {
		t.Errorf("trace file has %d lines, recorder reported %d events", lines, res.TraceEvents)
	}
	for _, want := range []string{
		"validator_stage_seconds", "validator_blocks_total",
		"orderer_blocks_total", "load_e2e_seconds",
		"delivery_blocks_total", "statedb_reads_total",
	} {
		if !strings.Contains(res.MetricsText, want) {
			t.Errorf("metrics exposition is missing %s", want)
		}
	}
}
