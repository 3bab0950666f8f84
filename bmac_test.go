package bmac

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Arch.TxValidators != 8 || cfg.Arch.VSCCEngines != 2 {
		t.Errorf("default arch = %+v", cfg.Arch)
	}
}

func TestParseConfigRoundTrip(t *testing.T) {
	cfg, err := ParseConfig([]byte(`
channel: ch9
orgs:
  - name: Org1
    peers: 1
    endorsers: 1
    clients: 1
    orderers: 1
chaincodes:
  - name: smallbank
    policy: "1of1"
`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Channel != "ch9" {
		t.Errorf("channel = %q", cfg.Channel)
	}
}

// TestTestbedHybridBackendCrossCheck runs the full network with the
// parallel peer on a small hybrid hardware/host database (modeled host
// latency, prefetch on) and cross-checks every block against the sequential
// and BMac peers: the §5 backend must be invisible to validation results.
func TestTestbedHybridBackendCrossCheck(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StateDB = StateDBSpec{Backend: "hybrid", Capacity: 16, HostReadLatencyUS: 20}
	cfg.Pipeline.Prefetch = true
	tb, err := NewTestbed(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	w := SmallbankWorkload{Accounts: 64, Skew: 1.2}
	if err := tb.Bootstrap(w); err != nil {
		t.Fatal(err)
	}
	driver, err := tb.NewClient(w, 42)
	if err != nil {
		t.Fatal(err)
	}
	const txs = 30
	if err := driver.Run(txs); err != nil {
		t.Fatal(err)
	}
	committed := 0
	for committed < txs {
		outcomes, err := tb.AwaitBlocks(1, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outcomes {
			committed += o.TxCount
			if !o.Match {
				t.Fatalf("block %d diverged across validation paths (par match %v, hw match %v)",
					o.BlockNum, o.ParMatch, o.HWMatch)
			}
		}
	}
	summary := tb.ParallelBackendSummary()
	if !strings.HasPrefix(summary, "hybrid") {
		t.Errorf("backend summary = %q, want hybrid", summary)
	}
}

// TestTestbedCloseIdempotent: explicit Close for error checking plus a
// deferred Close is a common pattern; the second call must be a no-op
// returning the first result, not a double-close panic.
func TestTestbedCloseIdempotent(t *testing.T) {
	tb, err := NewTestbed(DefaultConfig(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := tb.Close()
	if second := tb.Close(); second != first {
		t.Errorf("second Close = %v, first = %v", second, first)
	}
}

func TestExperimentNamesHaveTitles(t *testing.T) {
	names := ExperimentNames()
	if len(names) < 10 {
		t.Fatalf("only %d experiments", len(names))
	}
	for _, n := range names {
		if ExperimentTitle(n) == "" {
			t.Errorf("experiment %q has no title", n)
		}
	}
}

func TestRunExperimentQuick(t *testing.T) {
	tbl, err := RunExperiment("table1", ExperimentOptions{Quick: true, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Error("empty table")
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("nope", ExperimentOptions{Quick: true}); err == nil {
		t.Error("expected error")
	}
}

// TestTestbedSmallbankEndToEnd drives the full public API: build a network
// from the default config, bootstrap smallbank, submit transactions through
// the client driver, and verify every block matched between the software
// and BMac validation paths.
func TestTestbedSmallbankEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Arch.MaxBlockTxs = 10 // small blocks -> several blocks in the run
	tb, err := NewTestbed(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	w := SmallbankWorkload{Accounts: 40}
	if err := tb.Bootstrap(w); err != nil {
		t.Fatal(err)
	}
	driver, err := tb.NewClient(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	const txs = 30
	if err := driver.Run(txs); err != nil {
		t.Fatal(err)
	}
	// The batch timeout may split the run into 3 or 4 blocks; await by
	// transaction count.
	total := 0
	for total < txs {
		outcomes, err := tb.AwaitBlocks(1, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		o := outcomes[0]
		if !o.Match {
			t.Errorf("block %d: sw/hw mismatch\n  sw flags: %v\n  hw flags: %v",
				o.BlockNum, o.SW.Flags, o.HW.Flags)
		}
		total += o.TxCount
	}
	if total != txs {
		t.Errorf("committed %d txs, want %d", total, txs)
	}
	if tb.SWPeer.Ledger.Height() != tb.BMacPeer.Ledger.Height() {
		t.Error("ledger heights diverge")
	}
}

// TestTestbedDRM runs the drm benchmark through the same path.
func TestTestbedDRM(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chaincodes = []ChaincodeSpec{{Name: "drm", Policy: "2of2"}}
	cfg.Arch.MaxBlockTxs = 8
	tb, err := NewTestbed(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	w := DRMWorkload{Assets: 20}
	if err := tb.Bootstrap(w); err != nil {
		t.Fatal(err)
	}
	driver, err := tb.NewClient(w, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := driver.Run(16); err != nil {
		t.Fatal(err)
	}
	total := 0
	for total < 16 {
		outcomes, err := tb.AwaitBlocks(1, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !outcomes[0].Match {
			t.Error("drm block mismatch between sw and hw paths")
		}
		total += outcomes[0].TxCount
	}
}

func TestNewTestbedInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chaincodes = nil
	if _, err := NewTestbed(cfg, t.TempDir()); err == nil {
		t.Error("expected error for config without chaincodes")
	}

	cfg2 := DefaultConfig()
	cfg2.Orgs[0].Endorsers = 0
	cfg2.Orgs[1].Endorsers = 0
	if _, err := NewTestbed(cfg2, t.TempDir()); err == nil {
		t.Error("expected error for config without endorsers")
	}
}

func TestNewTestbedNeedsOrdererAndClient(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := DefaultConfig()
	cfg.Orgs[0].Orderers = 0
	if _, err := NewTestbed(cfg, t.TempDir()); err == nil {
		t.Error("expected error when the first org has no orderer")
	}
	// A validator ledger that cannot open fails the build after the raft
	// cluster, the orderer and the BMac peer are up.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "sw_validator"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewTestbed(DefaultConfig(), dir); err == nil {
		t.Error("expected error when the validator ledger cannot open")
	}
	// A failed build releases everything it started.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the failed builds, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}

	cfg2 := DefaultConfig()
	cfg2.Orgs[0].Clients = 0
	tb, err := NewTestbed(cfg2, t.TempDir())
	if err != nil {
		t.Fatal(err) // network builds fine...
	}
	defer tb.Close()
	if _, err := tb.NewClient(SmallbankWorkload{Accounts: 1}, 1); err == nil {
		t.Error("expected error when the first org has no client identity")
	}
}

func TestSimulateArchitectureErrors(t *testing.T) {
	if _, err := SimulateArchitecture(8, 2, SimWorkload{Policy: "bogus", BlockSize: 10}); err == nil {
		t.Error("expected policy parse error")
	}
	if _, err := SimulateArchitecture(8, 2, SimWorkload{Policy: "2of2", BlockSize: 0}); err == nil {
		t.Error("expected block size error")
	}
}

func TestSimulateArchitectureShortCircuit(t *testing.T) {
	res, err := SimulateArchitecture(8, 2, SimWorkload{Policy: "2of3", BlockSize: 100, Reads: 2, Writes: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 2of3 with all-valid endorsements: one per tx skipped.
	if res.EndsSkipped != 100 {
		t.Errorf("skipped = %d, want 100", res.EndsSkipped)
	}
	if res.Throughput <= 0 || !res.FitsU250 {
		t.Errorf("result = %+v", res)
	}
}
