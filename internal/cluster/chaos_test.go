package cluster

import (
	"path/filepath"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/chaos"
	"bmac/internal/config"
	"bmac/internal/ledger"
)

// requireConverged fails the test with a per-peer dump when the fast
// peers did not end bit-identical.
func requireConverged(t *testing.T, res *Result) {
	t.Helper()
	if res.Converged {
		return
	}
	for _, p := range res.Peers {
		t.Logf("%s: height %d state %.16s commit %.16s slow=%v restarts=%d",
			p.Name, p.Height, p.StateHash, p.CommitHash, p.Slow, p.Restarts)
	}
	t.Fatal("fast peers did not converge")
}

// TestAdversarialFloodConvergence is the hostile-load gate: with half of
// all traffic adversarial (invalid signatures, garbage payloads, forged
// endorsements, replayed double-spends), every honest transaction still
// commits, every hostile one is flag-invalidated rather than forking any
// peer, and all fast peers end bit-identical.
func TestAdversarialFloodConvergence(t *testing.T) {
	res, err := Run(testConfig(), Options{
		Mode:      Sequential,
		Peers:     3,
		Txs:       40,
		Clients:   2,
		Adversary: 0.5,
		Seed:      29,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Adversary == nil {
		t.Fatal("no adversary report")
	}
	st := res.Adversary.Injected
	if st.Total() == 0 {
		t.Fatal("adversary injected nothing")
	}
	if st.BadSig == 0 || st.Garbage == 0 || st.Forged == 0 {
		t.Errorf("hostile mix has empty kinds: %v", st)
	}
	// Every honest tx committed and was latency-matched; hostile traffic
	// rode along in the same blocks.
	if res.SWLatency.Count != res.Submitted {
		t.Errorf("matched %d/%d honest txs", res.SWLatency.Count, res.Submitted)
	}
	if int64(res.Txs) != int64(res.Submitted)+st.Total() {
		t.Errorf("observer committed %d envelopes, want %d honest + %d hostile",
			res.Txs, res.Submitted, st.Total())
	}
	// Hostile envelopes are flag-invalidated: badsig, garbage and forged
	// deterministically so; replays die of MVCC staleness (their reads
	// were versioned before the original committed). Honest transactions
	// can MVCC-conflict too under concurrent load, so the rejected count
	// is a floor, not an equality.
	deterministic := int(st.BadSig + st.Garbage + st.Forged)
	if res.Adversary.RejectedInvalid < deterministic {
		t.Errorf("rejected %d invalid envelopes, want >= %d (badsig+garbage+forged)",
			res.Adversary.RejectedInvalid, deterministic)
	}
	if res.ValidTxs == 0 || res.ValidTxs+res.Adversary.RejectedInvalid != res.Txs {
		t.Errorf("valid %d + rejected %d != committed %d", res.ValidTxs, res.Adversary.RejectedInvalid, res.Txs)
	}
	requireConverged(t, res)
}

// TestPartitionHealConvergence severs the victim peer's delivery link
// mid-run, holds it down past the retained window, heals, and requires
// the victim to catch up (through the orderer's ledger) to a
// bit-identical state. With the service's default window (256 blocks, far
// more than the run cuts) the partition holds until the run is over: the
// heal threshold is the effective window, not the unset config value.
func TestPartitionHealConvergence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window int
	}{{"window4", 4}, {"defaultWindow", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.Arch.MaxBlockTxs = 4
			cfg.Delivery.Window = tc.window
			res, err := Run(cfg, Options{
				Mode:       Sequential,
				Peers:      3,
				Txs:        80,
				Rate:       900,
				Clients:    2,
				Fault:      chaos.FaultPartition,
				FaultAfter: 2,
				Seed:       31,
			}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.Chaos == nil || res.Chaos.Fault != chaos.FaultPartition {
				t.Fatalf("chaos report %+v", res.Chaos)
			}
			if res.Chaos.Heals != 1 {
				t.Errorf("partition healed %d times, want 1", res.Chaos.Heals)
			}
			if res.Chaos.HealedAt <= res.Chaos.StruckAt {
				t.Errorf("healed at height %d, struck at %d: the partition had no duration",
					res.Chaos.HealedAt, res.Chaos.StruckAt)
			}
			if tc.window == 0 && res.Chaos.HealedAt < uint64(res.Blocks) {
				t.Errorf("healed at height %d of %d under the default window: the heal ignored the effective window",
					res.Chaos.HealedAt, res.Blocks)
			}
			if res.Txs != res.Submitted {
				t.Errorf("observer committed %d/%d txs", res.Txs, res.Submitted)
			}
			var victim *PeerReport
			for i := range res.Peers {
				if res.Peers[i].Name == res.Chaos.Victim {
					victim = &res.Peers[i]
				}
			}
			if victim == nil {
				t.Fatalf("victim %q not in peer reports", res.Chaos.Victim)
			}
			// A partition healed only after the run shows in the early stats
			// snapshot as failed sends; its redial comes later.
			if tc.window == 0 && victim.Delivery.SendErrs == 0 {
				t.Error("no send to the victim failed: the partition never bit")
			}
			if tc.window != 0 && victim.Delivery.Redials == 0 {
				t.Error("victim recovered without redialing: the partition never bit")
			}
			requireConverged(t, res)
		})
	}
}

// TestCorruptionSelfHealsConvergence bit-flips every Nth gossip frame to
// the victim: the receiver rejects each corrupted frame (DecodeErrors),
// the sender's cursor may advance past the torn connection, and the
// gap -> rewind self-heal plus redelivery must still end bit-identical.
func TestCorruptionSelfHealsConvergence(t *testing.T) {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 4
	cfg.Delivery.Window = 8
	res, err := Run(cfg, Options{
		Mode:    Sequential,
		Peers:   3,
		Txs:     60,
		Rate:    900,
		Clients: 2,
		Fault:   chaos.FaultCorruption,
		Seed:    37,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Chaos == nil || res.Chaos.CorruptedFrames == 0 {
		t.Fatalf("chaos report %+v: no frames corrupted", res.Chaos)
	}
	if res.Txs != res.Submitted {
		t.Errorf("observer committed %d/%d txs", res.Txs, res.Submitted)
	}
	requireConverged(t, res)
}

// TestSlowDiskRetriesConvergence injects write latency plus transient
// errors under the victim's ledger and checkpoint writers: the bounded
// retry loops absorb every fault (no data loss, no failed peer) and the
// victim still converges.
func TestSlowDiskRetriesConvergence(t *testing.T) {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 4
	cfg.Durability.CheckpointEvery = 3
	res, err := Run(cfg, Options{
		Mode:    Sequential,
		Peers:   3,
		Txs:     40,
		Clients: 2,
		Fault:   chaos.FaultSlowDisk,
		Seed:    41,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Chaos == nil || res.Chaos.Fault != chaos.FaultSlowDisk {
		t.Fatalf("chaos report %+v", res.Chaos)
	}
	if res.Chaos.DiskWrites == 0 || res.Chaos.DiskFaults == 0 {
		t.Fatalf("disk shim saw %d writes / %d faults: fault never installed",
			res.Chaos.DiskWrites, res.Chaos.DiskFaults)
	}
	if res.Chaos.LedgerRetries == 0 {
		t.Error("victim's ledger absorbed no fault retries")
	}
	requireConverged(t, res)
}

// TestLeaderKillExactlyOnce kills the raft leader mid-run: after the
// re-election and orderer rebind, every submitted transaction is in the
// chain exactly once — verified from the observer's reopened ledger, not
// just counters — and all peers converge.
func TestLeaderKillExactlyOnce(t *testing.T) {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 4
	dir := t.TempDir()
	res, err := Run(cfg, Options{
		Mode:       Sequential,
		Peers:      2,
		RaftNodes:  3,
		Txs:        60,
		Rate:       900,
		Clients:    2,
		Fault:      chaos.FaultLeaderKill,
		FaultAfter: 2,
		Timeout:    90 * time.Second,
		Seed:       43,
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chaos == nil || res.Chaos.Fault != chaos.FaultLeaderKill {
		t.Fatalf("chaos report %+v", res.Chaos)
	}
	if res.Chaos.NewLeader < 0 || res.Chaos.NewLeader == res.Chaos.KilledNode {
		t.Fatalf("new leader %d after killing node %d", res.Chaos.NewLeader, res.Chaos.KilledNode)
	}
	if res.Txs != res.Submitted {
		t.Errorf("observer committed %d/%d txs", res.Txs, res.Submitted)
	}
	requireConverged(t, res)

	// No silent loss, no duplicate commit: walk the observer's ledger.
	led, err := ledger.Open(filepath.Join(dir, "peer0"), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	seen := make(map[string]int, res.Submitted)
	for num := uint64(0); num < led.Height(); num++ {
		b, err := led.Get(num)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b.Envelopes {
			id, err := block.EnvelopeTxID(&b.Envelopes[i])
			if err != nil {
				t.Fatal(err)
			}
			seen[id]++
		}
	}
	if len(seen) != res.Submitted {
		t.Fatalf("%d distinct txids in the chain, want %d", len(seen), res.Submitted)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("txid %s committed %d times", id, n)
		}
	}
}

// TestFaultOptionValidation pins the scenario preconditions.
func TestFaultOptionValidation(t *testing.T) {
	if _, err := Run(testConfig(), Options{Fault: "meteor", Txs: 4}, t.TempDir()); err == nil {
		t.Error("unknown fault accepted")
	}
	if _, err := Run(testConfig(), Options{Fault: chaos.FaultPartition, Churn: true, Peers: 3, Txs: 4}, t.TempDir()); err == nil {
		t.Error("churn + fault accepted")
	}
	if _, err := Run(testConfig(), Options{Fault: chaos.FaultLeaderKill, RaftNodes: 1, Txs: 4}, t.TempDir()); err == nil {
		t.Error("leader kill on a 1-node raft accepted")
	}
	if _, err := Run(testConfig(), Options{Fault: chaos.FaultPartition, Peers: 2, SlowPeers: 1, Txs: 4}, t.TempDir()); err == nil {
		t.Error("peer fault with one fast peer accepted")
	}
	if _, err := Run(testConfig(), Options{Adversary: 0.95, Txs: 4}, t.TempDir()); err == nil {
		t.Error("adversary rate 0.95 accepted")
	}
}
