// Package cluster wires the whole delivery-side stack end to end: an
// open-loop client load (internal/load) submits endorsed transactions to
// a Raft-backed ordering service, whose blocks fan out through the
// non-blocking delivery service (internal/delivery) to N software peers
// over the Gossip wire format and optionally to a BMac peer over the
// custom protocol — the paper §3.5 dual path at cluster scale. Each
// software peer validates with one of the three commit paths (sequential,
// parallel pipelined, pipelined over the hybrid hardware/host database),
// and the harness reports throughput, per-tx end-to-end commit latency
// (p50/p95/p99) and per-peer delivery statistics, including the
// isolation of an artificially slow peer.
//
// Peers are durable: every block lands in a per-peer disk ledger before it
// counts as committed, state checkpoints bound recovery replay, and the
// orderer keeps its own ledger that backs the delivery service's catch-up
// source. The churn scenario (Options.Churn) exercises the whole recovery
// story: one fast peer is killed mid-run, restarted from its checkpoint +
// ledger replay, caught up through the orderer's ledger, and must finish
// with a state hash bit-identical to the peers that never died.
package cluster

import (
	"cmp"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bmac/internal/block"
	"bmac/internal/chaos"
	"bmac/internal/client"
	"bmac/internal/config"
	"bmac/internal/delivery"
	"bmac/internal/gossip"
	"bmac/internal/ledger"
	"bmac/internal/load"
	"bmac/internal/metrics"
	"bmac/internal/peer"
	"bmac/internal/statedb"
	"bmac/internal/telemetry"
	"bmac/internal/validator"
)

// Validation path modes for the software peers.
const (
	Sequential = "sequential" // internal/validator, Fabric's baseline pipeline
	Pipelined  = "pipelined"  // internal/pipeline over an in-memory store
	Hybrid     = "hybrid"     // internal/pipeline + prefetch over the §5 hybrid database
)

// Modes lists the validation path modes in presentation order.
func Modes() []string { return []string{Sequential, Pipelined, Hybrid} }

// Options parameterize one cluster run. The delivery window and the
// peers' durability (checkpoint cadence, segment budget, pruning, fast
// sync) are not options: Run reads them from the config's delivery and
// durability sections.
type Options struct {
	// Mode selects the software peers' validation path (default
	// Sequential).
	Mode string
	// Peers is the number of software gossip peers (default 3).
	Peers int
	// SlowPeers marks that many peers, taken from the end, as
	// artificially slow (SlowDelay per block on their delivery pipe).
	SlowPeers int
	// SlowDelay is the per-block delay of a slow peer (default 20ms).
	SlowDelay time.Duration
	// SlowPolicy is the overrun policy name for slow peers: "drop"
	// (default, so the run completes while the drop counter shows the
	// overload) or "disconnect". Fast peers always use disconnect.
	SlowPolicy string
	// BMacPeer includes a hardware peer fed over the BMac protocol.
	BMacPeer bool
	// RaftNodes sizes the ordering service's Raft cluster (default 1,
	// the paper's setup; 3 exercises majority replication).
	RaftNodes int
	// Txs is the total number of transactions to submit (default 60).
	Txs int
	// Rate is the aggregate open-loop arrival rate in tx/s (<= 0: no
	// pacing).
	Rate float64
	// Arrival is the inter-arrival distribution (load.Poisson default).
	Arrival string
	// Clients is the number of concurrent load clients (default 2).
	Clients int
	// Accounts sizes the smallbank state (default 64).
	Accounts int
	// Skew is the smallbank hot-account Zipf exponent (0 = uniform).
	Skew float64
	// Seed makes the workload and arrivals deterministic.
	Seed int64
	// Timeout bounds the whole run (default 60s).
	Timeout time.Duration
	// Churn kills the last fast peer after it commits ChurnAfter blocks,
	// restarts it from checkpoint + ledger replay once its delivery cursor
	// has fallen off the retained window, and lets the delivery service
	// stream the lost range from the orderer's ledger. Requires at least
	// two fast peers (the observer never churns).
	Churn bool
	// ChurnAfter is how many blocks the churned peer commits before the
	// kill (default 2).
	ChurnAfter int
	// ChurnCorrupt flips a byte in the victim's oldest sealed ledger
	// segment while it is down (requires Churn and a config
	// durability.segment_bytes small enough that segments have sealed). On
	// restart the open-time checksum sweep quarantines the damaged segment;
	// the victim then re-fetches the lost range through delivery (its pipe
	// is rewound to the hole) and must still converge bit-identical.
	ChurnCorrupt bool
	// Adversary injects hostile transactions (invalid signatures, garbage
	// payloads, forged endorsements, replayed double-spends) at this
	// fraction of total submitted traffic (0 disables; see internal/chaos).
	Adversary float64
	// Fault selects a chaos fault scenario layered on the run: one of
	// chaos.Faults() ("" = none). Mutually exclusive with Churn. Leader
	// kill needs RaftNodes >= 3; the peer-level faults (partition,
	// corruption, slow disk) strike the last fast peer, so they need at
	// least two fast peers.
	Fault string
	// FaultAfter is how many blocks the observer commits before the fault
	// strikes (default 2; slow disk is active from the start).
	FaultAfter int
	// Recorder, when set, receives the per-block lifecycle trace (an
	// injected recorder lets bmacnet serve /trace live while the run is in
	// flight). When nil and the config's telemetry plane is enabled, the
	// run creates its own per-run recorder, so block numbers never collide
	// across consecutive runs on one Config.
	Recorder *telemetry.Recorder
}

func (o Options) withDefaults() Options {
	o.Mode = cmp.Or(o.Mode, Sequential)
	o.Peers = cmp.Or(o.Peers, 3)
	o.SlowDelay = cmp.Or(o.SlowDelay, 20*time.Millisecond)
	o.SlowPolicy = cmp.Or(o.SlowPolicy, "drop")
	o.RaftNodes = cmp.Or(o.RaftNodes, 1)
	o.Txs = cmp.Or(o.Txs, 60)
	o.Clients = cmp.Or(o.Clients, 2)
	o.Accounts = cmp.Or(o.Accounts, 64)
	o.Timeout = cmp.Or(o.Timeout, 60*time.Second)
	o.ChurnAfter = cmp.Or(o.ChurnAfter, 2)
	o.FaultAfter = cmp.Or(o.FaultAfter, 2)
	return o
}

// PeerReport is one software peer's end-of-run summary.
type PeerReport struct {
	Name     string
	Slow     bool
	Blocks   int // blocks committed
	Txs      int // envelopes committed
	ValidTxs int
	Delivery delivery.PeerStats
	// Height is the peer's final ledger height.
	Height uint64
	// Ledger is the peer's segment-store summary: live/sealed segment
	// counts, prune floor, and the session's seal/quarantine/restore/prune
	// counters.
	Ledger ledger.Stats
	// StateHash is the hex digest of the peer's final state database
	// (statedb.SnapshotHash) — equal across peers iff their states are
	// bit-identical.
	StateHash string
	// CommitHash is the hex commit-hash chain value of the peer's last
	// ledger block.
	CommitHash string
	// Restarts counts churn kills this peer recovered from.
	Restarts int
}

// ChurnReport summarizes the churn scenario of one run.
type ChurnReport struct {
	Peer        string
	KillHeight  uint64 // the peer's ledger height at the moment of the kill
	RecoveredAt uint64 // height the restarted peer resumed from (checkpoint + replay)
	CaughtUp    uint64 // blocks the delivery pipe streamed from the orderer's ledger
	Restarts    int
	// CorruptedFile is the sealed segment ChurnCorrupt bit-flipped while
	// the peer was down ("" without ChurnCorrupt); Quarantined and
	// RestoredBlocks count the victim's recovery from it.
	CorruptedFile  string
	Quarantined    int64
	RestoredBlocks int64
}

// AdversaryReport summarizes the hostile traffic of one run.
type AdversaryReport struct {
	// Rate is the configured hostile fraction of total traffic.
	Rate float64
	// Injected breaks the hostile envelopes down by kind.
	Injected chaos.AdversaryStats
	// RejectedInvalid is how many committed envelopes the observer peer
	// flag-invalidated — hostile transactions neutralized without
	// forking any peer.
	RejectedInvalid int
}

// ChaosReport summarizes the chaos fault scenario of one run.
type ChaosReport struct {
	// Fault is the scenario name (chaos.Fault*).
	Fault string
	// Victim is the struck peer (peer faults) or raft node (leader kill).
	Victim string
	// StruckAt is the delivery height when the fault hit.
	StruckAt uint64
	// HealedAt is the delivery height when the partition healed or the
	// orderer was rebound to the new leader (0 for slow disk).
	HealedAt uint64
	// Heals counts partition heal events.
	Heals int64
	// CorruptedFrames counts gossip frames the corruption fault bit-flipped.
	CorruptedFrames int64
	// DiskWrites and DiskFaults count the slow-disk shim's writes and
	// injected transient faults; LedgerRetries is how many of those the
	// victim's ledger absorbed by retry.
	DiskWrites    int64
	DiskFaults    int64
	LedgerRetries int64
	// KilledNode and NewLeader are the raft node ids around a leader kill.
	KilledNode int
	NewLeader  int
}

// Result is the cluster run report.
type Result struct {
	Mode      string
	RaftNodes int
	Submitted int
	Late      int // arrivals that fired behind schedule
	Blocks    int // blocks committed by the observer peer
	Txs       int // envelopes committed by the observer peer
	ValidTxs  int
	Elapsed   time.Duration
	// HonestElapsed is the time from run start until the observer had
	// committed every honest (client-submitted) transaction. With an
	// adversary, Elapsed additionally covers trailing hostile-only batches
	// cut on the batch timer after the honest load completed, so honest
	// goodput comparisons should use HonestElapsed.
	HonestElapsed time.Duration
	TPS           float64 // committed envelopes/s at the observer peer
	// SWLatency is the per-tx end-to-end latency (scheduled arrival ->
	// committed on the observer software peer).
	SWLatency metrics.LatencySummary
	// HWLatency is the same measured at the BMac peer (zero without one).
	HWLatency metrics.LatencySummary
	Peers     []PeerReport
	// BMacDelivery is the hardware path's delivery pipe (zero value
	// without a BMac peer).
	BMacDelivery delivery.PeerStats
	// SigCacheHitRate and ParseCacheHitRate report THIS run's traffic on
	// the shared hot-path caches (crypto.sig_cache_size /
	// hotpath.parse_cache_size), computed from stat deltas so reusing one
	// Config across several runs does not blend their rates. Every peer in
	// the process shares the caches, so repeated signatures and envelopes
	// across the fan-out cost their decode once.
	SigCacheHitRate   float64
	ParseCacheHitRate float64
	// Converged reports whether every fast peer finished with the same
	// ledger height, state hash and commit hash (slow peers may lag or
	// drop by design and are excluded).
	Converged bool
	// Churn is the churn scenario summary (nil when Options.Churn is off).
	Churn *ChurnReport
	// Adversary is the hostile-traffic summary (nil when Options.Adversary
	// is 0).
	Adversary *AdversaryReport
	// Chaos is the fault scenario summary (nil when Options.Fault is "").
	Chaos *ChaosReport
	// Budget is the per-stage latency budget aggregated from the block
	// lifecycle trace: where the end-to-end microseconds went, per stage,
	// with its coverage of summed e2e latency. Nil without telemetry.
	Budget *telemetry.Budget
	// TraceEvents counts the spans the flight recorder captured.
	TraceEvents int
	// TraceFile is the JSONL trace path written (config telemetry.
	// trace_file), empty when none was configured.
	TraceFile string
	// MetricsText is the final Prometheus exposition snapshot of the
	// config's registry ("" without telemetry). Counters are process-
	// cumulative: consecutive runs on one Config accumulate.
	MetricsText string
}

// swPeer is one software gossip peer: listener, commit engine, counters. A
// churn restart reopens its listener and engine in place (open).
type swPeer struct {
	name string
	slow bool
	dir  string
	ln   *gossip.Listener
	addr *atomic.Value // the current gossip address; a restart moves it
	node committer
	led  *ledger.Ledger
	next uint64        // first block the commit loop expects (recovered height)
	done chan struct{} // closed by the commit loop; nil until start

	mu         sync.Mutex
	blocks     int
	txs        int
	validTxs   int
	restarts   int
	lastCommit time.Time
	err        error
}

// gossipDialer dials the peer's current address (a restarted peer comes
// back on a fresh listener, and the pipe's redial must follow it there),
// wrapping the transport with the artificial slow-peer delay, if any.
func gossipDialer(addr *atomic.Value, slowDelay time.Duration) func() (delivery.Transport, error) {
	return func() (delivery.Transport, error) {
		tr, err := delivery.DialGossip(addr.Load().(string))
		if err != nil {
			return nil, err
		}
		if slowDelay > 0 {
			return delivery.Slowed(tr, slowDelay), nil
		}
		return tr, nil
	}
}

// submitWindow is one transaction's SubmitTx call wall-clock window.
type submitWindow struct {
	start, end time.Time
}

// tracedSubmitter wraps a load.Submitter and records each successful submit
// call's window keyed by the returned transaction id, for the orderer's
// flight-recorder hook. The record lands after the inner call returns, so a
// transaction cut into a block synchronously inside SubmitTx can be ordered
// before its window is visible — the orderer hook falls back to contiguous
// anchors for such transactions.
type tracedSubmitter struct {
	inner load.Submitter
	times *sync.Map // txid -> submitWindow
}

func (t *tracedSubmitter) SubmitTx() (string, error) {
	start := time.Now()
	txid, err := t.inner.SubmitTx()
	if err == nil {
		t.times.Store(txid, submitWindow{start: start, end: time.Now()})
	}
	return txid, err
}

func (p *swPeer) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// deltaRate is hits/(hits+misses) over a counter delta, 0 when idle.
func deltaRate(hits, misses int64) float64 {
	if hits+misses <= 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// run is the live state of one cluster run, shared by the wait loop, the
// scenario hooks and the report.
type run struct {
	cfg    *config.Config
	opts   Options
	reg    *telemetry.Registry // nil when the telemetry plane is off
	rec    *telemetry.Recorder // nil when the telemetry plane is off
	top    *Topology
	ordLed *ledger.Ledger // the orderer's ledger: delivery's catch-up source
	svc    *delivery.Service
	gen    *load.Generator
	scn    scenario // nil without churn or a fault
	phase  phase
	peers  []*swPeer // peer 0 is the observer

	subTimes sync.Map // txid -> submitWindow, filled with a recorder on

	hwMu sync.Mutex
	hwAt map[uint64]time.Time // when the BMac peer committed each block

	loadErr         error
	submitted, late int
	honestDone      time.Time // the observer had every honest tx committed
}

// Run executes one cluster experiment: build, bootstrap, drive, drain,
// report. dir receives the peers' ledgers.
func Run(cfg *config.Config, opts Options, dir string) (*Result, error) {
	opts = opts.withDefaults()
	if opts.SlowPeers >= opts.Peers {
		return nil, fmt.Errorf("cluster: %d slow peers need at least %d peers", opts.SlowPeers, opts.SlowPeers+1)
	}
	scn, err := newScenario(opts)
	if err != nil {
		return nil, err
	}
	slowPolicy, err := delivery.ParsePolicy(opts.SlowPolicy)
	if err != nil {
		return nil, err
	}
	// With telemetry off, the load-driving hot path never reads the statedb
	// access counters, so they are pure per-access overhead: run with
	// counting off. With telemetry on the registry exports them as per-peer
	// gauges, so they stay at their configured setting.
	hot := *cfg
	if !hot.Telemetry.Enabled {
		hot.StateDB.NoCountAccesses = true
	}
	cfg = &hot
	r := &run{cfg: cfg, opts: opts, reg: cfg.TelemetryRegistry(), rec: opts.Recorder, scn: scn,
		hwAt: make(map[uint64]time.Time)}
	if scn == nil {
		r.phase = healed
	}
	if r.rec == nil && cfg.Telemetry.Enabled {
		r.rec = telemetry.NewRecorder()
	}
	// Snapshot the shared caches' counters so the report reflects this
	// run's traffic, not whatever a previous run on the same Config did.
	sigH0, sigM0, _ := cfg.SigCache().Stats()
	parH0, parM0 := cfg.ParseCache().Stats()

	topts := TopologyOptions{RaftNodes: opts.RaftNodes, BatchTimeout: 30 * time.Millisecond,
		Metrics: telemetry.NewOrdererMetrics(r.reg)}
	if opts.BMacPeer {
		topts.BMacDir = filepath.Join(dir, "bmac_peer")
	}
	if r.top, err = NewTopology(cfg, topts); err != nil {
		return nil, err
	}
	defer r.top.Close()
	// The orderer's own block ledger: every created block is appended here
	// before it enters the delivery window, so the delivery service can
	// stream arbitrarily old blocks to a peer that fell off the window
	// (the ledger-backed catch-up source).
	if r.ordLed, err = ledger.Open(filepath.Join(dir, "orderer"), ledger.Options{}); err != nil {
		return nil, fmt.Errorf("cluster: orderer ledger: %w", err)
	}
	defer r.ordLed.Close()

	// Software peers behind real gossip TCP listeners, bootstrapped with
	// the genesis state. The genesis checkpoint matters: the bootstrap
	// state exists in no ledger block, so a peer restarted before its first
	// periodic checkpoint must find it on disk.
	defer func() {
		for _, p := range r.peers {
			p.ln.Close() // bmaclint:allow errdiscard (teardown: listener close error is unactionable)
			if p.done != nil {
				<-p.done // commitLoop exits once the intake channel closes
			}
			p.node.Close() // bmaclint:allow errdiscard (teardown: the run's result is already decided)
		}
	}()
	stores := make([]statedb.KVS, 0, opts.Peers)
	for i := 0; i < opts.Peers; i++ {
		name := fmt.Sprintf("peer%d", i)
		p := &swPeer{name: name, slow: i >= opts.Peers-opts.SlowPeers, dir: filepath.Join(dir, name),
			addr: new(atomic.Value)}
		if err := p.open(cfg, opts.Mode, diskFault(scn, i)); err != nil {
			return nil, err
		}
		p.addr.Store(p.ln.Addr())
		r.peers = append(r.peers, p)
		stores = append(stores, p.node.Store())
	}
	w := client.SmallbankWorkload{Accounts: opts.Accounts, Skew: opts.Skew}
	if err := r.top.Bootstrap(w, stores...); err != nil {
		return nil, err
	}
	for _, p := range r.peers {
		if err := p.node.Checkpoint(); err != nil {
			return nil, fmt.Errorf("cluster: genesis checkpoint for %s: %w", p.name, err)
		}
	}

	// Open-loop load. The adversary, when enabled, taps the honest path to
	// the orderer (capturing envelopes for its replay corpus) and wraps
	// every client, so hostile traffic rides the same open-loop schedule as
	// honest traffic at the configured fraction. With a recorder on, every
	// client records its submit call windows, the anchors of the
	// submit/endorse spans.
	r.gen, err = load.New(load.Options{Rate: opts.Rate, Arrival: opts.Arrival, Count: opts.Txs,
		Seed: opts.Seed, Metrics: telemetry.NewLoadMetrics(r.reg)})
	if err != nil {
		return nil, err
	}
	var adv *chaos.Adversary
	var sub client.Submitter = r.top.Orderer
	if opts.Adversary > 0 {
		adv, err = chaos.NewAdversary(chaos.AdversaryOptions{Rate: opts.Adversary, Seed: opts.Seed,
			Channel: cfg.Channel}, r.top.Orderer)
		if err != nil {
			return nil, err
		}
		sub = adv.Tap(r.top.Orderer)
	}
	drivers := make([]load.Submitter, opts.Clients)
	for i := range drivers {
		d, err := r.top.NewDriver(w, sub, opts.Seed+int64(100+i))
		if err != nil {
			return nil, err
		}
		drivers[i] = d
		if adv != nil {
			drivers[i] = adv.Wrap(drivers[i])
		}
		if r.rec != nil {
			drivers[i] = &tracedSubmitter{inner: drivers[i], times: &r.subTimes}
		}
	}

	// Delivery service: every path is one per-peer pipe, with the
	// orderer's ledger as the catch-up source behind the window.
	r.svc = delivery.NewService(delivery.Options{Window: cfg.Delivery.Window,
		History: delivery.LedgerSource(r.ordLed), Registry: r.reg})
	defer r.svc.Close()
	if err := r.registerPipes(slowPolicy); err != nil {
		return nil, err
	}
	// Chaos-plane counters on the scrape endpoint: hostile traffic volume
	// and how much of it the observer flag-invalidated (the scenarios
	// register their own).
	if adv != nil {
		r.reg.GaugeFunc("chaos_injected_hostile_total", func() int64 { return adv.Stats().Total() })
		obs := r.peers[0] // the observer never churns; the pointer is stable
		r.reg.GaugeFunc("chaos_rejected_invalid_total", func() int64 {
			obs.mu.Lock()
			defer obs.mu.Unlock()
			return int64(obs.txs - obs.validTxs)
		})
	}
	r.top.Orderer.OnDeliver(r.deliver)
	for i, p := range r.peers {
		p.start(r, i == 0)
	}
	if r.top.BMacPeer != nil {
		go r.collectHW() // exits when the BMac peer closes its results
	}

	// Drive the load concurrently with the wait loop, so a scenario can
	// strike mid-submission.
	start := time.Now()
	loadErr := make(chan error, 1)
	go func() { loadErr <- r.gen.Run(drivers) }()
	if err := r.await(loadErr, adv != nil, time.Now().Add(opts.Timeout)); err != nil {
		return nil, err
	}
	// Snapshot delivery stats now, while the contrast is visible: the
	// observer has everything, so a fast peer's lag is ~0 while the slow
	// peer still shows its backlog and drops.
	early := r.deliveryStats()
	// Let the remaining (fast and slow) pipes finish their backlog; the
	// slow peer's drop counter, not the drain, absorbs its overload.
	drainErr := r.svc.Drain(opts.Timeout)
	r.settle(adv != nil)

	// Report.
	sigH1, sigM1, _ := cfg.SigCache().Stats()
	parH1, parM1 := cfg.ParseCache().Stats()
	res := &Result{
		Mode:              opts.Mode,
		RaftNodes:         opts.RaftNodes,
		Submitted:         r.submitted,
		Late:              r.late,
		SWLatency:         r.gen.Latency(),
		SigCacheHitRate:   deltaRate(sigH1-sigH0, sigM1-sigM0),
		ParseCacheHitRate: deltaRate(parH1-parH0, parM1-parM0),
	}
	obs := r.peers[0]
	obs.mu.Lock()
	res.Blocks, res.Txs, res.ValidTxs = obs.blocks, obs.txs, obs.validTxs
	res.Elapsed = obs.lastCommit.Sub(start)
	res.HonestElapsed = r.honestDone.Sub(start)
	obs.mu.Unlock()
	if res.Elapsed > 0 {
		res.TPS = metrics.Throughput(res.Txs, res.Elapsed)
	}
	r.reportPeers(res, early)
	if scn != nil {
		scn.report(r, res)
	}
	if adv != nil {
		res.Adversary = &AdversaryReport{Rate: opts.Adversary, Injected: adv.Stats(),
			RejectedInvalid: res.Txs - res.ValidTxs}
	}
	if r.top.BMacPeer != nil {
		res.BMacDelivery = early["bmac"]
		if res.HWLatency, err = r.hwLatency(); err != nil {
			return res, err
		}
	}
	res.Budget, res.TraceEvents = r.rec.Budget(), r.rec.Len()
	if path := cfg.Telemetry.TraceFile; r.rec != nil && path != "" {
		f, err := os.Create(path)
		if err == nil {
			err = r.rec.WriteJSONL(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return res, fmt.Errorf("cluster: trace file: %w", err)
		}
		res.TraceFile = path
	}
	res.MetricsText = r.reg.Text()
	if r.loadErr != nil {
		return res, fmt.Errorf("cluster: load: %w", r.loadErr)
	}
	return res, drainErr
}

// registerPipes registers one delivery pipe per software peer, plus the
// BMac peer's; the scenario rewires its victim's pipe.
func (r *run) registerPipes(slowPolicy delivery.Policy) error {
	for i, p := range r.peers {
		po := delivery.PeerOptions{Policy: delivery.Disconnect, MaxRedials: r.cfg.Delivery.MaxRedials,
			Dial: gossipDialer(p.addr, 0)}
		if p.slow {
			po.Policy, po.Dial = slowPolicy, gossipDialer(p.addr, r.opts.SlowDelay)
		}
		if r.scn != nil && i == r.scn.victim() {
			r.scn.wire(r, &po)
		}
		t, err := po.Dial()
		if err != nil {
			return err
		}
		if err := r.svc.Register(p.name, t, po); err != nil {
			return err
		}
	}
	if r.top.Sender == nil {
		return nil
	}
	return r.svc.Register("bmac", delivery.NewBMacTransport(r.top.Sender), delivery.PeerOptions{})
}

// start launches the peer's commit loop; the observer records end-to-end
// latency and plays the committer for the endorsers.
func (p *swPeer) start(r *run, observer bool) {
	p.done = make(chan struct{})
	go p.commitLoop(r, observer) // closes done once the listener closes its intake
}

// deliver is the orderer's only hook: it appends the block to the
// orderer ledger (feeding the catch-up source) and publishes into the
// delivery window; it never blocks on a peer.
func (r *run) deliver(b *block.Block) error {
	if _, err := r.ordLed.Commit(b); err != nil {
		return fmt.Errorf("orderer ledger: %w", err)
	}
	if r.rec == nil {
		return r.svc.Publish(b)
	}
	// Flight recorder: the block exists now, so its pre-delivery lifecycle
	// is known. submit = first scheduled arrival → first submit call,
	// endorse = submit calls in flight, order = last submit returned →
	// block created (batch wait + raft + signing), publish = fan-out
	// hand-off. The spans are anchored end-to-start so the trace tiles the
	// timeline without gaps.
	now := time.Now()
	num := b.Header.Number
	var minSched, minStart, maxEnd time.Time
	for i := range b.Envelopes {
		id, err := block.EnvelopeTxID(&b.Envelopes[i])
		if err != nil {
			continue
		}
		if v, ok := r.subTimes.Load(id); ok {
			w := v.(submitWindow)
			if minStart.IsZero() || w.start.Before(minStart) {
				minStart = w.start
			}
			if w.end.After(maxEnd) {
				maxEnd = w.end
			}
		}
		if t0, ok := r.gen.SubmitTime(id); ok {
			if minSched.IsZero() || t0.Before(minSched) {
				minSched = t0
			}
		}
	}
	// A submit record can trail its transaction into a block (the
	// generator stores it after SubmitTx returns); fall back so the trace
	// stays contiguous rather than dropping the block.
	if minStart.IsZero() {
		minStart = now
	}
	if minSched.IsZero() {
		minSched = minStart
	}
	if maxEnd.IsZero() {
		maxEnd = minStart
	}
	r.rec.Stamp(num, telemetry.StageSubmit, "", minSched, minStart, len(b.Envelopes))
	r.rec.Stamp(num, telemetry.StageEndorse, "", minStart, maxEnd, 0)
	r.rec.Stamp(num, telemetry.StageOrder, "", maxEnd, now, 0)
	pubStart := time.Now()
	err := r.svc.Publish(b)
	r.rec.Stamp(num, telemetry.StagePublish, "", pubStart, time.Now(), 0)
	return err
}

// await steps the scenario while the load runs, until the observer peer
// has committed every submitted transaction (valid or invalidated — each
// lands in a block either way) and the scenario has played out. A run
// that completes first forces the scenario through its remaining phases,
// so even a tiny run plays the strike and the recovery through.
func (r *run) await(loadErr <-chan error, adversary bool, deadline time.Time) error {
	finished := false
	for {
		if !finished {
			select {
			case r.loadErr = <-loadErr:
				finished = true
				r.submitted, _, r.late = r.gen.Stats()
			default:
			}
		}
		obs := r.peers[0]
		obs.mu.Lock()
		committed := obs.txs
		err := obs.err
		obs.mu.Unlock()
		if err != nil {
			return fmt.Errorf("cluster: observer peer: %w", err)
		}
		// With an adversary the observer's envelope count includes hostile
		// traffic, so completion is judged by honest transactions matched
		// back to their submissions.
		if adversary {
			_, committed, _ = r.gen.Stats()
		}
		over := finished && committed >= r.submitted
		if over && r.honestDone.IsZero() {
			r.honestDone = time.Now()
		}
		if err := r.step(over); err != nil {
			return err
		}
		if over && r.phase == healed {
			return nil
		}
		if oerr := r.top.Orderer.Err(); oerr != nil {
			return fmt.Errorf("cluster: orderer: %w", oerr)
		}
		// A dead pipe on a fast peer is fatal; a slow peer is allowed to
		// die of its configured policy (that is the experiment).
		for _, st := range r.svc.Stats() {
			if st.Err != nil && !isSlowName(r.peers, st.Name) {
				return fmt.Errorf("cluster: delivery to %s: %w", st.Name, st.Err)
			}
		}
		if time.Now().After(deadline) {
			if over {
				return errors.New("cluster: scenario did not complete in time")
			}
			return fmt.Errorf("cluster: observer committed %d/%d txs after %v",
				committed, r.submitted, r.opts.Timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// settle waits for every fast peer's ledger, and the BMac peer's commits,
// to reach the published height: zero delivery lag only means the frames
// reached the sockets (or, for the BMac peer, the protocol link).
// The target is re-read each pass — with an adversary, trailing
// hostile-only batches can still cut on the batch timer after the honest
// load completes, so the loop additionally requires the height to hold
// still briefly before calling the run settled. A peer stalled short of
// the target (a corrupted tail frame with no follow-on block to expose
// the gap to its commit loop) gets its delivery cursor rewound to its own
// height to force redelivery. The settle deadline bounds a stuck peer;
// the convergence gate reports it.
func (r *run) settle(adversary bool) {
	settleDeadline := time.Now().Add(r.opts.Timeout)
	stableSince := time.Now()
	lastTarget := r.svc.Height()
	lastH := make(map[string]uint64, len(r.peers))
	lastHAt := make(map[string]time.Time, len(r.peers))
	for _, p := range r.peers {
		if !p.slow {
			lastH[p.name], lastHAt[p.name] = p.led.Height(), time.Now()
		}
	}
	for {
		target := r.svc.Height()
		if target != lastTarget {
			lastTarget = target
			stableSince = time.Now()
		}
		allAt := true
		for _, p := range r.peers {
			if p.slow {
				continue
			}
			p.mu.Lock()
			perr := p.err
			p.mu.Unlock()
			if perr != nil {
				continue // dead peers are reported by the convergence gate
			}
			st := p.led.Stats()
			h := st.Height
			// A quarantined hole below the height also blocks settling:
			// the archive refetch must complete before the convergence
			// gate can call the run bit-identical.
			if h >= target && st.MissingBlocks == 0 {
				continue
			}
			allAt = false
			// Progress is commit height plus restored archive blocks, so a
			// peer mid-backfill does not read as stalled.
			prog := h + uint64(st.RestoredBlocks)
			if lastH[p.name] != prog {
				lastH[p.name], lastHAt[p.name] = prog, time.Now()
			} else if time.Since(lastHAt[p.name]) > 200*time.Millisecond {
				to := h
				if mr := p.led.MissingRanges(); len(mr) > 0 {
					to = mr[0].First
				}
				r.svc.Rewind(p.name, to) // bmaclint:allow errdiscard (best-effort nudge; the settle deadline bounds a stuck peer)
				lastHAt[p.name] = time.Now()
			}
		}
		r.hwMu.Lock()
		hwDone := r.top.BMacPeer == nil || uint64(len(r.hwAt)) >= target
		r.hwMu.Unlock()
		if allAt && hwDone && (!adversary || time.Since(stableSince) > 150*time.Millisecond) {
			return
		}
		if time.Now().After(settleDeadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// deliveryStats snapshots every pipe's delivery stats by peer name.
func (r *run) deliveryStats() map[string]delivery.PeerStats {
	stats := make(map[string]delivery.PeerStats, len(r.peers)+1)
	for _, st := range r.svc.Stats() {
		stats[st.Name] = st
	}
	return stats
}

// reportPeers fills the per-peer reports and the convergence verdict:
// every fast peer must have reached an identical chain and state; slow
// peers may lag or drop by design. Delivery stats come from the early
// snapshot, which preserved the slow-peer contrast, except the catch-up
// counters, which only settle after the drain.
func (r *run) reportPeers(res *Result, early map[string]delivery.PeerStats) {
	final := r.deliveryStats()
	res.Peers = make([]PeerReport, len(r.peers))
	res.Converged = true
	var ref *PeerReport // the first fast peer's
	for i, p := range r.peers {
		pr := &res.Peers[i]
		p.mu.Lock()
		*pr = PeerReport{
			Name:     p.name,
			Slow:     p.slow,
			Blocks:   p.blocks,
			Txs:      p.txs,
			ValidTxs: p.validTxs,
			Delivery: early[p.name],
			Restarts: p.restarts,
		}
		p.mu.Unlock()
		pr.Delivery.CaughtUp = final[p.name].CaughtUp
		pr.Height = p.led.Height()
		pr.Ledger = p.led.Stats()
		pr.StateHash = hex.EncodeToString(statedb.SnapshotHash(p.node.Store().Snapshot()))
		pr.CommitHash = hex.EncodeToString(p.led.LastCommitHash())
		switch {
		case pr.Slow:
		case ref == nil:
			ref = pr
		case pr.Height != ref.Height || pr.StateHash != ref.StateHash || pr.CommitHash != ref.CommitHash:
			res.Converged = false
		}
	}
}

// collectHW records the BMac peer's commits until the peer closes.
func (r *run) collectHW() {
	for res := range r.top.BMacPeer.Results() {
		at := time.Now()
		r.hwMu.Lock()
		r.hwAt[res.BlockNum] = at
		r.hwMu.Unlock()
	}
}

// hwLatency is the hardware path's end-to-end latency: it joins each
// block the BMac peer committed, read back from the orderer's ledger, to
// the scheduled arrivals of its transactions. gen.Run has returned, so
// every submission is recorded by then.
func (r *run) hwLatency() (metrics.LatencySummary, error) {
	r.hwMu.Lock()
	defer r.hwMu.Unlock()
	var samples metrics.Samples
	for num, at := range r.hwAt {
		b, err := r.ordLed.Get(num)
		if err != nil {
			return metrics.LatencySummary{}, fmt.Errorf("cluster: hardware latency: %w", err)
		}
		for i := range b.Envelopes {
			if id, err := block.EnvelopeTxID(&b.Envelopes[i]); err == nil {
				if t0, ok := r.gen.SubmitTime(id); ok {
					samples.Add(at.Sub(t0))
				}
			}
		}
	}
	return samples.Summary(), nil
}

// stampBlock records the observer-side lifecycle spans of one committed
// block. The deliver span runs from the orderer's publish hand-off to the
// block's arrival on this peer's intake; the validation spans are laid out
// sequentially from arrival using the commit path's measured breakdown
// (wall-clock stage windows are not exposed by the pipelined engine, whose
// stages overlap — the sequential layout preserves each stage's share while
// keeping the trace tiled); any residual up to commit completion lands in
// the "other" span so the budget always sums transparently; and the
// enclosing e2e span runs from the first scheduled arrival (stamped by the
// orderer hook) to commit completion.
func (p *swPeer) stampBlock(rec *telemetry.Recorder, b *block.Block, bd *validator.Breakdown, recvAt, commitEnd time.Time) {
	num := b.Header.Number
	if pubEnd, ok := rec.StageEnd(num, telemetry.StagePublish); ok {
		rec.Stamp(num, telemetry.StageDeliver, p.name, pubEnd, recvAt, 0)
	} else {
		rec.Stamp(num, telemetry.StageDeliver, p.name, recvAt, recvAt, 0)
	}
	cur := recvAt
	span := func(stage string, d time.Duration) {
		if d < 0 {
			d = 0
		}
		end := cur.Add(d)
		rec.Stamp(num, stage, p.name, cur, end, 0)
		cur = end
	}
	span(telemetry.StageParse, bd.Unmarshal)
	span(telemetry.StagePrefetch, bd.PrefetchWait)
	span(telemetry.StageVSCC, bd.BlockVerify+bd.VerifyVSCC)
	span(telemetry.StageMVCC, bd.MVCC)
	// StateDB overlaps MVCC (its reads feed validation); only the
	// non-overlapping write side plus the ledger append count as commit.
	span(telemetry.StageCommit, (bd.StateDB-bd.MVCC)+bd.LedgerCommit)
	if commitEnd.After(cur) {
		rec.Stamp(num, telemetry.StageOther, p.name, cur, commitEnd, 0)
	}
	if subStart, ok := rec.StageStart(num, telemetry.StageSubmit); ok {
		rec.Stamp(num, telemetry.StageE2E, p.name, subStart, commitEnd, len(b.Envelopes))
	}
}

func isSlowName(peers []*swPeer, name string) bool {
	for _, p := range peers {
		if p.name == name {
			return p.slow
		}
	}
	return false
}

// committer is the opened durable software peer behind a cluster peer: a
// *peer.SWPeer or a *peer.ParallelPeer.
type committer interface {
	CommitBlock(*block.Block) (peer.CommitResult, error)
	Checkpoint() error // write a state checkpoint at the current height
	Height() uint64
	Store() statedb.KVS
	Close() error
}

// open opens (recovering) the peer's durable store for the selected
// validation path, behind a fresh gossip listener: checkpoint + ledger
// replay seed the state, and p.next reports the height the peer resumes
// from. A churn restart reopens a killed peer the same way. A non-nil df
// installs the slow-disk fault shim under the ledger and checkpoint
// writers. The store's access counters are exported as scrape-time
// gauges, so a restart re-registers them for the replacement store.
func (p *swPeer) open(cfg *config.Config, mode string, df *chaos.DiskFault) error {
	dopts := peer.DurableOptions{
		CheckpointEvery: cfg.Durability.CheckpointEvery,
		KeepCheckpoints: cfg.Durability.KeepCheckpoints,
		SegmentBytes:    cfg.Durability.SegmentBytes,
		Prune:           cfg.Durability.Prune,
		NoFastSync:      cfg.Durability.NoFastSync,
		SyncEachBlock:   cfg.Durability.SyncEachBlock,
		Metrics:         telemetry.NewLedgerMetrics(cfg.TelemetryRegistry(), p.name),
	}
	if df != nil {
		dopts.CommitFault = df.Hook()
		dopts.CheckpointFault = df.Hook()
	}
	switch mode {
	case Sequential:
		valCfg, err := cfg.ValidatorConfig(4)
		if err != nil {
			return err
		}
		store := statedb.NewStore()
		if cfg.StateDB.NoCountAccesses {
			store.SetCountAccesses(false)
		}
		sw, err := peer.NewDurableSWPeer(valCfg, store, p.dir, dopts)
		if err != nil {
			return err
		}
		p.node, p.led = sw, sw.Ledger
	case Pipelined, Hybrid:
		mcfg := *cfg
		if mode == Hybrid {
			mcfg.StateDB.Backend = config.BackendHybrid
			mcfg.Pipeline.Prefetch = true
		} else {
			mcfg.StateDB.Backend = config.BackendMemory
		}
		pipeCfg, err := mcfg.PipelineConfig()
		if err != nil {
			return err
		}
		kvs, err := mcfg.NewKVS()
		if err != nil {
			return err
		}
		pp, err := peer.NewDurableParallelPeer(pipeCfg, kvs, p.dir, dopts)
		if err != nil {
			return err
		}
		p.node, p.led = pp, pp.Ledger
	default:
		return fmt.Errorf("cluster: unknown mode %q (valid: %v)", mode, Modes())
	}
	ln, err := gossip.Listen("127.0.0.1:0")
	if err != nil {
		p.node.Close() // bmaclint:allow errdiscard (error path: cleanup before returning the real error)
		return err
	}
	p.ln, p.next = ln, p.node.Height()
	st, reg := p.node.Store(), cfg.TelemetryRegistry()
	reg.GaugeFunc(telemetry.Name("statedb_reads_total", "peer", p.name),
		func() int64 { rd, _ := st.AccessCounts(); return int64(rd) })
	reg.GaugeFunc(telemetry.Name("statedb_writes_total", "peer", p.name),
		func() int64 { _, wr := st.AccessCounts(); return int64(wr) })
	return nil
}

// commitLoop drains the peer's gossip intake, committing blocks in
// delivery order. The observer additionally records end-to-end latency,
// applies committed writes to the endorser stores (the topology's
// committer role), and — when the flight recorder is on — stamps the
// block's peer-side lifecycle spans (deliver through commit, plus the
// enclosing e2e span). Fast peers rewind their pipe on a delivery gap
// (frames lost when wire corruption tore the connection down after the
// sender's cursor advanced) instead of silently skipping blocks; a slow
// DropBlocks peer skips by design.
func (p *swPeer) commitLoop(r *run, observer bool) {
	defer close(p.done)
	var rewind func(uint64) error
	if !p.slow {
		rewind = func(seq uint64) error { return r.svc.Rewind(p.name, seq) }
	}
	next := p.next // 0 on a fresh peer, the recovered height after a restart
	skipped := false
	var badSeq uint64 // height of the last block dropped as corrupt
	badRuns := 0      // consecutive drops at badSeq
	restoreFails := 0 // consecutive Restore rejections (archive refetch)
	for b := range p.ln.Blocks() {
		// Delivery is at-least-once: a redial resends from the
		// unadvanced cursor, so a block already committed may arrive
		// again (e.g. the first copy was flushed as the timed-out
		// connection closed). Skip duplicates — unless the block falls in
		// a quarantined hole below the peer's height, in which case this
		// redelivery IS the archive refetch: Restore backfills the
		// missing range into a fresh sealed segment. The blocks were
		// state-committed before the segment went bad, so only the ledger
		// copy is rebuilt (and verified against the surviving chain).
		// Gaps are possible for a DropBlocks slow peer but reordering is
		// not.
		if b.Header.Number < next {
			if p.led.NeedsRestore(b.Header.Number) {
				if err := p.led.Restore(b); err != nil {
					restoreFails++
					if restoreFails > 32 {
						p.fail(fmt.Errorf("restore block %d: %w", b.Header.Number, err))
						return
					}
				} else {
					restoreFails = 0
				}
			}
			continue
		}
		if b.Header.Number > next {
			if rewind != nil {
				// Frames were lost in flight (wire corruption tore the
				// connection down after the sender's cursor advanced).
				// Ask the delivery service to rewind this peer's cursor
				// and redeliver; the out-of-order block in hand is
				// dropped, its redelivered copy commits.
				if err := rewind(next); err != nil {
					p.fail(fmt.Errorf("rewind to %d: %w", next, err))
					return
				}
				continue
			}
			// A gap: a DropBlocks peer cannot MVCC-validate against a
			// state missing the skipped writes, so it keeps counting
			// delivery but stops committing.
			skipped = true
		}
		next = b.Header.Number + 1
		if skipped {
			p.mu.Lock()
			p.blocks++
			p.txs += len(b.Envelopes)
			p.lastCommit = time.Now()
			p.mu.Unlock()
			continue
		}
		recvAt := time.Now()
		res, err := p.node.CommitBlock(b)
		if err != nil {
			if rewind != nil && errors.Is(err, validator.ErrBlockInvalid) {
				// The delivered block decoded but failed block-level
				// verification (DataHash or orderer signature): wire
				// corruption damaged envelope bytes without breaking the
				// framing. Nothing was committed; drop the block and
				// rewind for an intact redelivery. A block that keeps
				// failing at the same height is not wire damage — fall
				// through to peer failure after a few attempts.
				if b.Header.Number != badSeq {
					badSeq, badRuns = b.Header.Number, 0
				}
				badRuns++
				if badRuns <= 8 {
					next = b.Header.Number
					if rerr := rewind(next); rerr != nil {
						p.fail(fmt.Errorf("rewind to %d: %w", next, rerr))
						return
					}
					continue
				}
			}
			p.fail(fmt.Errorf("commit block %d: %w", b.Header.Number, err))
			return
		}
		at := time.Now()
		if observer {
			if r.rec != nil {
				p.stampBlock(r.rec, b, &res.Breakdown, recvAt, at)
			}
			if err := r.top.ApplyBlock(b, res.Flags); err != nil {
				p.fail(err)
				return
			}
			r.gen.ObserveBlock(b, at)
		}
		p.mu.Lock()
		p.blocks++
		p.txs += len(b.Envelopes)
		p.validTxs += block.CountValid(res.Flags)
		p.lastCommit = at
		p.mu.Unlock()
	}
}
