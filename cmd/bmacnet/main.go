// Command bmacnet runs a complete in-process BMac network: clients endorse
// and submit benchmark transactions through a Raft ordering service, and
// every block is validated three ways — by the sequential software
// validator, by the parallel pipelined commit engine and by the BMac
// pipeline — with all results cross-checked, as in paper §4.1.
//
// With -cluster it instead drives the delivery-side stack end to end:
// an open-loop client load (configurable arrival rate and distribution)
// submits through the Raft ordering service, and blocks fan out through
// the non-blocking delivery service to N gossip peers (one of them
// artificially slow) and a BMac peer, reporting throughput, per-tx
// p50/p95/p99 commit latency and per-peer delivery statistics.
//
// With -cluster -churn it additionally kills the last fast peer mid-run
// and restarts it from its checkpoint + ledger replay, catching it up
// through the orderer's ledger-backed delivery source; the run fails
// unless every fast peer converges to an identical state hash. Adding
// -churn-corrupt bit-rots one of the downed peer's sealed ledger segments
// so the restart must quarantine it and re-fetch the lost range through
// delivery; -segment-bytes, -prune and -fastsync tune the segmented
// ledger's rotation budget, checkpoint-covered pruning and recovery mode.
//
// With -cluster -adversary-rate it mixes hostile traffic (invalid
// signatures, garbage envelopes, forged endorsements, replayed
// double-spends) into the honest load at the given fraction; with
// -cluster -fault it injects one chaos fault (partition, corruption,
// slowdisk or leaderkill) mid-run. Both gate on all fast peers ending
// bit-identical.
//
// Usage:
//
//	bmacnet                          # smallbank, default config
//	bmacnet -config bmac.yaml        # custom network/architecture
//	bmacnet -workload drm -txs 500   # drm benchmark
//	bmacnet -cluster -peers 4 -slow-peers 1 -rate 500 -path pipelined
//	bmacnet -cluster -churn -rate 900 -txs 200 -no-bmac
//	bmacnet -cluster -churn -churn-corrupt -segment-bytes 4096 -txs 200 -no-bmac
//	bmacnet -cluster -churn -segment-bytes 4096 -prune -checkpoint-every 4 -rate 900 -txs 200 -no-bmac
//	bmacnet -cluster -adversary-rate 0.5 -txs 200 -no-bmac
//	bmacnet -cluster -fault partition -rate 900 -txs 200 -no-bmac
//	bmacnet -cluster -fault leaderkill -raft-nodes 3 -peers 2 -rate 900 -txs 200 -no-bmac
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bmac"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bmacnet:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		configPath = flag.String("config", "", "YAML configuration file (default: built-in)")
		workload   = flag.String("workload", "smallbank", "workload: smallbank, drm or splitpay")
		txs        = flag.Int("txs", 200, "transactions to submit")
		accounts   = flag.Int("accounts", 100, "accounts/assets to bootstrap")
		skew       = flag.Float64("skew", 0, "smallbank hot-account Zipf exponent (>1 skews, 0 = uniform)")
		dir        = flag.String("dir", "", "ledger directory (default: temp)")
		backend    = flag.String("backend", "", "parallel peer statedb backend: memory, hybrid or sharded (default: config)")
		dbCap      = flag.Int("db-capacity", 0, "hybrid backend cache capacity (default: architecture db_capacity)")
		hostLatUS  = flag.Int("host-latency-us", 0, "modeled host read latency on hybrid cache misses, microseconds")
		prefetch   = flag.Bool("prefetch", false, "enable the pipelined engine's async read-set prefetch stage")

		clusterRun = flag.Bool("cluster", false, "run the cluster load experiment (orderer -> raft -> delivery -> N peers)")
		path       = flag.String("path", "sequential", "cluster validation path: sequential, pipelined or hybrid")
		peers      = flag.Int("peers", 3, "cluster software peers")
		slowPeers  = flag.Int("slow-peers", 1, "cluster peers made artificially slow (taken from the end)")
		slowDelay  = flag.Duration("slow-delay", 40*time.Millisecond, "per-block delay of a slow peer")
		rate       = flag.Float64("rate", 0, "open-loop aggregate arrival rate, tx/s (0 = unpaced)")
		arrival    = flag.String("arrival", "poisson", "inter-arrival distribution: poisson or uniform")
		clients    = flag.Int("clients", 2, "concurrent load clients")
		raftNodes  = flag.Int("raft-nodes", 1, "raft cluster size of the ordering service")
		window     = flag.Int("delivery-window", 0, "delivery retained-block window (0 = config/default)")
		slowPolicy = flag.String("delivery-policy", "", "slow peers' overrun policy: drop, disconnect, or wait (lossless, throttles the orderer to the slow peer; default: config/drop)")
		noBMac     = flag.Bool("no-bmac", false, "cluster: skip the BMac protocol peer")
		churn      = flag.Bool("churn", false, "cluster: kill the last fast peer mid-run and restart it from checkpoint + ledger replay")
		churnAfter = flag.Int("churn-after", 0, "cluster: blocks the churned peer commits before the kill (0 = default 2)")
		churnRot   = flag.Bool("churn-corrupt", false, "cluster: bit-rot the churned peer's oldest sealed segment while it is down; the restart must quarantine it and re-fetch the range through delivery")
		ckptEvery  = flag.Int("checkpoint-every", 0, "peer state checkpoint cadence in blocks (0 = config durability.checkpoint_every)")
		segBytes   = flag.Int64("segment-bytes", 0, "ledger segment rotation budget in bytes (0 = config durability.segment_bytes or ledger default)")
		prune      = flag.Bool("prune", false, "prune ledger segments covered by every retained checkpoint generation (requires a checkpoint cadence)")
		fastsync   = flag.Bool("fastsync", true, "recover restarted peers from the newest checkpoint generation + tail replay (false: full replay from the oldest, a measurement baseline)")
		advRate    = flag.Float64("adversary-rate", 0, "cluster: fraction of all traffic injected as hostile envelopes — invalid signatures, garbage, forged endorsements, replays (0..0.9)")
		fault      = flag.String("fault", "", "cluster: chaos fault to inject: "+strings.Join(bmac.ChaosFaults(), ", "))
		faultAfter = flag.Int("fault-after", 0, "cluster: blocks committed before the fault strikes (0 = default 2)")

		telAddr   = flag.String("telemetry-addr", "", "serve live /metrics, /debug/pprof/* and /trace on this address (e.g. 127.0.0.1:9464); turns the telemetry plane on")
		traceFile = flag.String("trace-file", "", "cluster: write the per-block lifecycle trace (JSONL) here after the run; turns the telemetry plane on")
	)
	flag.Parse()

	cfg := bmac.DefaultConfig()
	if *configPath != "" {
		loaded, err := bmac.LoadConfig(*configPath)
		if err != nil {
			return err
		}
		cfg = loaded
	}
	if *backend != "" {
		cfg.StateDB.Backend = *backend
	}
	if *dbCap > 0 {
		cfg.StateDB.Capacity = *dbCap
	}
	if *hostLatUS > 0 {
		cfg.StateDB.HostReadLatencyUS = *hostLatUS
	}
	if *prefetch {
		cfg.Pipeline.Prefetch = true
	}
	// The delivery and durability flags write the config only when given.
	cfg.Delivery.Window = cmp.Or(*window, cfg.Delivery.Window)
	cfg.Durability.CheckpointEvery = cmp.Or(*ckptEvery, cfg.Durability.CheckpointEvery)
	cfg.Durability.SegmentBytes = cmp.Or(*segBytes, cfg.Durability.SegmentBytes)
	cfg.Durability.Prune = cfg.Durability.Prune || *prune
	cfg.Durability.NoFastSync = cfg.Durability.NoFastSync || !*fastsync
	if *telAddr != "" {
		cfg.Telemetry.Enabled = true
		cfg.Telemetry.Addr = *telAddr
	}
	if *traceFile != "" {
		cfg.Telemetry.Enabled = true
		cfg.Telemetry.TraceFile = *traceFile
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	// The telemetry plane: a per-run flight recorder (stamped by the
	// cluster harness) plus the live HTTP endpoint, both optional. The
	// server is up before the run starts so /metrics and /debug/pprof can
	// watch the run in flight.
	var rec *bmac.TraceRecorder
	if cfg.Telemetry.Enabled {
		rec = bmac.NewTraceRecorder()
	}
	if cfg.Telemetry.Addr != "" {
		srv, err := bmac.ServeTelemetry(cfg.Telemetry.Addr, cfg.TelemetryRegistry(), rec)
		if err != nil {
			return fmt.Errorf("telemetry server: %w", err)
		}
		defer srv.Close()
		fmt.Printf("telemetry: http://%s (/metrics, /debug/pprof/, /trace)\n", srv.Addr())
	}
	var w bmac.Workload
	switch *workload {
	case "smallbank":
		w = bmac.SmallbankWorkload{Accounts: *accounts, Skew: *skew}
	case "drm":
		cfg.Chaincodes = []bmac.ChaincodeSpec{{Name: "drm", Policy: cfg.Chaincodes[0].Policy}}
		w = bmac.DRMWorkload{Assets: *accounts}
	case "splitpay":
		cfg.Chaincodes = []bmac.ChaincodeSpec{{Name: "splitpay", Policy: cfg.Chaincodes[0].Policy}}
		w = bmac.SplitPayWorkload{Accounts: *accounts, Recipients: 3}
	default:
		return fmt.Errorf("unknown workload %q", *workload)
	}

	workdir := *dir
	if workdir == "" {
		tmp, err := os.MkdirTemp("", "bmacnet-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		workdir = tmp
	}

	if *clusterRun {
		pol := *slowPolicy
		if pol == "" {
			pol = cfg.Delivery.Policy
		}
		return runCluster(cfg, bmac.ClusterOptions{
			Mode:         *path,
			Peers:        *peers,
			SlowPeers:    *slowPeers,
			SlowDelay:    *slowDelay,
			SlowPolicy:   pol,
			BMacPeer:     !*noBMac,
			RaftNodes:    *raftNodes,
			Txs:          *txs,
			Rate:         *rate,
			Arrival:      *arrival,
			Clients:      *clients,
			Accounts:     *accounts,
			Skew:         *skew,
			Seed:         time.Now().UnixNano(),
			Churn:        *churn,
			ChurnAfter:   *churnAfter,
			ChurnCorrupt: *churnRot,
			Adversary:    *advRate,
			Fault:        *fault,
			FaultAfter:   *faultAfter,
			Recorder:     rec,
		}, workdir)
	}

	tb, err := bmac.NewTestbed(cfg, workdir)
	if err != nil {
		return err
	}
	defer tb.Close()

	if err := tb.Bootstrap(w); err != nil {
		return err
	}
	driver, err := tb.NewClient(w, time.Now().UnixNano())
	if err != nil {
		return err
	}

	fmt.Printf("network: %d orgs, %d endorsers, arch %dx%d, channel %s\n",
		len(cfg.Orgs), len(tb.Endorsers), cfg.Arch.TxValidators, cfg.Arch.VSCCEngines, cfg.Channel)
	fmt.Printf("submitting %d %s transactions...\n", *txs, *workload)
	start := time.Now()
	// Submit concurrently with outcome consumption: with small blocks a
	// long run produces more blocks than the outcomes channel and the
	// delivery window can buffer, and the cross-check's backpressure
	// would park Submit until someone drains outcomes.
	submitErr := make(chan error, 1)
	// bmaclint:allow goroleak (Run submits a fixed count; joined via the submitErr receive below)
	go func() { submitErr <- driver.Run(*txs) }()

	committed, blocks, mismatches := 0, 0, 0
	var swTotal, parTotal bmac.StageBreakdown
	for committed < *txs {
		select {
		case o := <-tb.Outcomes():
			blocks++
			committed += o.TxCount
			if !o.Match {
				mismatches++
			}
			swTotal.Add(o.SW.Breakdown)
			parTotal.Add(o.Par.Breakdown)
			fmt.Printf("block %3d: %3d txs, sw/hw match=%v, sw/par match=%v, ends verified=%d skipped=%d\n",
				o.BlockNum, o.TxCount, o.HWMatch, o.ParMatch,
				o.HW.HWStats.EndsVerified, o.HW.HWStats.EndsSkipped)
		case err := <-submitErr:
			if err != nil {
				return err
			}
			submitErr = nil // submission done; a nil channel never selects
		case <-time.After(30 * time.Second):
			return fmt.Errorf("timed out with %d/%d txs committed", committed, *txs)
		}
	}
	if submitErr != nil {
		if err := <-submitErr; err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("\n%d blocks, %d txs in %v (%.0f tps end-to-end)\n",
		blocks, committed, elapsed.Round(time.Millisecond), float64(committed)/elapsed.Seconds())

	fmt.Println("\nper-stage totals, sequential vs parallel pipelined validator:")
	fmt.Printf("  %-12s %12s %12s %9s\n", "stage", "sequential", "pipelined", "speedup")
	for _, s := range []struct {
		name    string
		sw, par time.Duration
	}{
		{"unmarshal", swTotal.Unmarshal, parTotal.Unmarshal},
		{"block_verify", swTotal.BlockVerify, parTotal.BlockVerify},
		{"verify_vscc", swTotal.VerifyVSCC, parTotal.VerifyVSCC},
		{"mvcc", swTotal.MVCC, parTotal.MVCC},
		{"statedb", swTotal.StateDB, parTotal.StateDB},
		{"total", swTotal.Total, parTotal.Total},
	} {
		speedup := "-"
		if s.par > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(s.sw)/float64(s.par))
		}
		fmt.Printf("  %-12s %12v %12v %9s\n", s.name,
			s.sw.Round(time.Microsecond), s.par.Round(time.Microsecond), speedup)
	}

	fmt.Printf("\nparallel peer statedb: %s\n", tb.ParallelBackendSummary())

	if mismatches != 0 {
		return fmt.Errorf("%d blocks mismatched across the three validation paths", mismatches)
	}
	fmt.Println("\nsequential, parallel and BMac validation results matched on every block")
	return nil
}

// runCluster drives the delivery-side stack and prints the report.
func runCluster(cfg *bmac.Config, opts bmac.ClusterOptions, dir string) error {
	fmt.Printf("cluster: %d peers (%d slow, +%v/block), path %s, raft %d node(s), %d txs",
		opts.Peers, opts.SlowPeers, opts.SlowDelay, opts.Mode, opts.RaftNodes, opts.Txs)
	if opts.Rate > 0 {
		fmt.Printf(" at %.0f tx/s (%s arrivals)", opts.Rate, opts.Arrival)
	}
	fmt.Println()

	res, err := bmac.RunCluster(cfg, opts, dir)
	if err != nil {
		return err
	}

	fmt.Printf("\n%d blocks, %d txs (%d valid) in %v: %s tps end-to-end, %d late arrivals\n",
		res.Blocks, res.Txs, res.ValidTxs, res.Elapsed.Round(time.Millisecond),
		bmac.FormatTPS(res.TPS), res.Late)
	fmt.Printf("gossip path  e2e commit latency: %s\n", res.SWLatency)
	if res.HWLatency.Count > 0 {
		fmt.Printf("bmac   path  e2e commit latency: %s\n", res.HWLatency)
	}
	fmt.Printf("hot-path caches: sig %.0f%% hit, parse %.0f%% hit (shared across %d peers)\n",
		res.SigCacheHitRate*100, res.ParseCacheHitRate*100, opts.Peers)

	fmt.Println("\nper-peer delivery (snapshot at fast-path completion):")
	fmt.Printf("  %-8s %-5s %8s %10s %6s %6s %8s %8s %8s %7s %6s\n",
		"peer", "slow", "blocks", "bytes", "lag", "drops", "catchup", "redials", "senderrs", "commits", "height")
	for _, p := range res.Peers {
		d := p.Delivery
		fmt.Printf("  %-8s %-5v %8d %10d %6d %6d %8d %8d %8d %7d %6d\n",
			p.Name, p.Slow, d.Blocks, d.Bytes, d.Lag, d.Dropped, d.CaughtUp, d.Redials, d.SendErrs, p.Blocks, p.Height)
	}
	if res.BMacDelivery.Name != "" {
		d := res.BMacDelivery
		fmt.Printf("  %-8s %-5v %8d %10d %6d %6d %8d %8d %8d %7s %6s\n",
			d.Name, false, d.Blocks, d.Bytes, d.Lag, d.Dropped, d.CaughtUp, d.Redials, d.SendErrs, "-", "-")
	}
	if res.Churn != nil {
		fmt.Printf("\nchurn: %s killed at height %d, recovered from %d (checkpoint + ledger replay), "+
			"%d blocks caught up through the orderer ledger, %d restart(s)\n",
			res.Churn.Peer, res.Churn.KillHeight, res.Churn.RecoveredAt, res.Churn.CaughtUp, res.Churn.Restarts)
		if res.Churn.CorruptedFile != "" {
			fmt.Printf("churn: bit-rot injected into %s — %d segment(s) quarantined, %d block(s) restored through delivery\n",
				res.Churn.CorruptedFile, res.Churn.Quarantined, res.Churn.RestoredBlocks)
		}
	}
	if res.Adversary != nil {
		a := res.Adversary
		fmt.Printf("\nadversary: %.0f%% hostile injection — %s; %d committed envelopes flag-invalidated\n",
			a.Rate*100, a.Injected, a.RejectedInvalid)
	}
	if c := res.Chaos; c != nil {
		switch c.Fault {
		case bmac.FaultPartition:
			fmt.Printf("chaos: partition — %s severed at height %d, healed at %d (%d heal)\n",
				c.Victim, c.StruckAt, c.HealedAt, c.Heals)
		case bmac.FaultCorruption:
			fmt.Printf("chaos: wire corruption — %d frames to %s bit-flipped in flight\n",
				c.CorruptedFrames, c.Victim)
		case bmac.FaultSlowDisk:
			fmt.Printf("chaos: slow disk — %s absorbed %d injected faults over %d writes (%d ledger retries)\n",
				c.Victim, c.DiskFaults, c.DiskWrites, c.LedgerRetries)
		case bmac.FaultLeaderKill:
			fmt.Printf("chaos: leader kill — raft node %d stopped at height %d, orderer rebound to node %d at %d\n",
				c.KilledNode, c.StruckAt, c.NewLeader, c.HealedAt)
		}
	}
	if res.Budget != nil {
		fmt.Printf("\n%s", res.Budget)
		if res.TraceFile != "" {
			fmt.Printf("trace: %d events -> %s\n", res.TraceEvents, res.TraceFile)
		}
	}
	if res.Converged {
		fmt.Println("fast peers converged: identical height, state hash and commit-hash chain")
	} else {
		return fmt.Errorf("fast peers did NOT converge (heights/state hashes differ)")
	}
	return nil
}
