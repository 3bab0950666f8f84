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
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/chaincode"
	"bmac/internal/chaos"
	"bmac/internal/client"
	"bmac/internal/config"
	"bmac/internal/delivery"
	"bmac/internal/endorser"
	"bmac/internal/gossip"
	"bmac/internal/identity"
	"bmac/internal/ledger"
	"bmac/internal/load"
	"bmac/internal/metrics"
	"bmac/internal/orderer"
	"bmac/internal/peer"
	"bmac/internal/raft"
	"bmac/internal/statedb"
	"bmac/internal/telemetry"
	"bmac/internal/validator"
	"bmac/internal/wire"
)

// Validation path modes for the software peers.
const (
	Sequential = "sequential" // internal/validator, Fabric's baseline pipeline
	Pipelined  = "pipelined"  // internal/pipeline over an in-memory store
	Hybrid     = "hybrid"     // internal/pipeline + prefetch over the §5 hybrid database
)

// Modes lists the validation path modes in presentation order.
func Modes() []string { return []string{Sequential, Pipelined, Hybrid} }

// Options parameterize one cluster run.
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
	// Window overrides the delivery window (default config/service
	// default).
	Window int
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
	// segment while it is down (requires Churn and a SegmentBytes small
	// enough that segments have sealed). On restart the open-time checksum
	// sweep quarantines the damaged segment; the victim then re-fetches
	// the lost range through delivery (its pipe is rewound to the hole)
	// and must still converge bit-identical.
	ChurnCorrupt bool
	// SegmentBytes overrides the peers' ledger segment rotation budget
	// (default: the config's durability.segment_bytes, then the ledger
	// default). Tiny values force rotation every few blocks.
	SegmentBytes int64
	// Prune lets each peer drop ledger segments wholly covered by every
	// retained checkpoint generation (default: durability.prune).
	Prune bool
	// NoFastSync makes restarted peers replay from the oldest retained
	// checkpoint instead of the newest — the fastsync experiment's
	// full-replay baseline (default: the inverse of durability.fastsync).
	NoFastSync bool
	// CheckpointEvery overrides the peers' state checkpoint cadence in
	// blocks (default: the config's durability.checkpoint_every).
	CheckpointEvery int
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
	if o.Mode == "" {
		o.Mode = Sequential
	}
	if o.Peers == 0 {
		o.Peers = 3
	}
	if o.SlowDelay == 0 {
		o.SlowDelay = 20 * time.Millisecond
	}
	if o.SlowPolicy == "" {
		o.SlowPolicy = "drop"
	}
	if o.RaftNodes == 0 {
		o.RaftNodes = 1
	}
	if o.Txs == 0 {
		o.Txs = 60
	}
	if o.Clients == 0 {
		o.Clients = 2
	}
	if o.Accounts == 0 {
		o.Accounts = 64
	}
	if o.Timeout == 0 {
		o.Timeout = 60 * time.Second
	}
	if o.Churn && o.ChurnAfter == 0 {
		o.ChurnAfter = 2
	}
	if o.Fault != "" && o.FaultAfter == 0 {
		o.FaultAfter = 2
	}
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

// swPeer is one software gossip peer: listener, commit engine, counters.
type swPeer struct {
	name    string
	slow    bool
	dir     string
	ln      *gossip.Listener
	node    committer
	led     *ledger.Ledger
	next    uint64 // first block the commit loop expects (recovered height)
	started bool   // commitLoop launched (done will be closed)
	done    chan struct{}

	mu         sync.Mutex
	blocks     int
	txs        int
	validTxs   int
	restarts   int
	lastCommit time.Time
	err        error
}

// peerAddr is a mutable gossip dial target: a restarted peer comes back on
// a fresh listener, and the delivery pipe's redial must follow it there.
type peerAddr struct {
	mu   sync.Mutex
	addr string
}

func (a *peerAddr) get() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.addr
}

func (a *peerAddr) set(s string) {
	a.mu.Lock()
	a.addr = s
	a.mu.Unlock()
}

// gossipDialer dials the peer's current address, wrapping the transport
// with the artificial slow-peer delay when one is configured.
func gossipDialer(a *peerAddr, slowDelay time.Duration) func() (delivery.Transport, error) {
	return func() (delivery.Transport, error) {
		tr, err := delivery.DialGossip(a.get())
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

// submitTimes shares per-tx submit call windows between the load drivers
// and the orderer's flight-recorder hook.
type submitTimes struct {
	mu    sync.Mutex
	times map[string]submitWindow
}

func (s *submitTimes) record(txid string, w submitWindow) {
	s.mu.Lock()
	s.times[txid] = w
	s.mu.Unlock()
}

// lookup is nil-receiver safe so the orderer hook can probe unconditionally.
func (s *submitTimes) lookup(txid string) (submitWindow, bool) {
	if s == nil {
		return submitWindow{}, false
	}
	s.mu.Lock()
	w, ok := s.times[txid]
	s.mu.Unlock()
	return w, ok
}

// tracedSubmitter wraps a load.Submitter and records each successful submit
// call's window keyed by the returned transaction id. The record lands after
// the inner call returns, so a transaction cut into a block synchronously
// inside SubmitTx can be ordered before its window is visible — the orderer
// hook falls back to contiguous anchors for such transactions.
type tracedSubmitter struct {
	inner load.Submitter
	rec   *submitTimes
}

func (t *tracedSubmitter) SubmitTx() (string, error) {
	start := time.Now()
	txid, err := t.inner.SubmitTx()
	if err != nil {
		return txid, err
	}
	t.rec.record(txid, submitWindow{start: start, end: time.Now()})
	return txid, nil
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

// Run executes one cluster experiment: build, bootstrap, drive, drain,
// report. dir receives the peers' ledgers.
func Run(cfg *config.Config, opts Options, dir string) (*Result, error) {
	opts = opts.withDefaults()
	if opts.SlowPeers >= opts.Peers {
		return nil, fmt.Errorf("cluster: %d slow peers need at least %d peers", opts.SlowPeers, opts.SlowPeers+1)
	}
	if opts.Churn && opts.Peers-opts.SlowPeers < 2 {
		return nil, fmt.Errorf("cluster: churn needs at least 2 fast peers (have %d peers, %d slow)",
			opts.Peers, opts.SlowPeers)
	}
	if opts.ChurnCorrupt && !opts.Churn {
		return nil, errors.New("cluster: ChurnCorrupt requires Churn (corruption strikes while the victim is down)")
	}
	fault, err := chaos.ParseFault(opts.Fault)
	if err != nil {
		return nil, err
	}
	if fault != "" && opts.Churn {
		return nil, errors.New("cluster: Churn and Fault are mutually exclusive scenarios")
	}
	if fault == chaos.FaultLeaderKill && opts.RaftNodes < 3 {
		return nil, fmt.Errorf("cluster: the %s fault needs RaftNodes >= 3 to re-elect (have %d)",
			fault, opts.RaftNodes)
	}
	peerFault := fault == chaos.FaultPartition || fault == chaos.FaultCorruption || fault == chaos.FaultSlowDisk
	if peerFault && opts.Peers-opts.SlowPeers < 2 {
		return nil, fmt.Errorf("cluster: the %s fault needs at least 2 fast peers (have %d peers, %d slow)",
			fault, opts.Peers, opts.SlowPeers)
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
	reg := cfg.TelemetryRegistry() // nil when the telemetry plane is off
	rec := opts.Recorder
	if rec == nil && cfg.Telemetry.Enabled {
		rec = telemetry.NewRecorder()
	}
	wire.SetBufferPooling(!cfg.Hotpath.NoMarshalPool)
	// Snapshot the shared caches' counters so the report reflects this
	// run's traffic, not whatever a previous run on the same Config did.
	sigH0, sigM0, _ := cfg.SigCache().Stats()
	parH0, parM0 := cfg.ParseCache().Stats()
	net, err := cfg.BuildNetwork()
	if err != nil {
		return nil, err
	}
	registry := chaincode.NewRegistry(chaincode.Smallbank{}, chaincode.DRM{}, chaincode.SplitPay{})

	// Endorser peers, as in the testbed.
	var endorsers []*endorser.Endorser
	for _, org := range cfg.Orgs {
		for i := 0; i < org.Endorsers; i++ {
			id, err := net.LookupByName(fmt.Sprintf("peer%d.%s", i, org.Name))
			if err != nil {
				return nil, err
			}
			endorsers = append(endorsers, endorser.New(id, statedb.NewStore(), registry))
		}
	}
	if len(endorsers) == 0 {
		return nil, errors.New("cluster: configuration declares no endorser peers")
	}

	// Ordering service: RaftNodes-node cluster, orderer bound to the
	// elected leader (leader submit).
	rc := raft.NewCluster(opts.RaftNodes, 20*time.Millisecond)
	defer rc.Stop()
	leader := rc.WaitForLeader(5 * time.Second)
	if leader == nil {
		return nil, errors.New("cluster: raft leader election timed out")
	}
	ordID, err := net.LookupByName("orderer0." + cfg.Orgs[0].Name)
	if err != nil {
		return nil, fmt.Errorf("cluster: first org needs an orderer: %w", err)
	}
	ord := orderer.New(orderer.Config{
		BatchSize:    cfg.Arch.MaxBlockTxs,
		BatchTimeout: 30 * time.Millisecond,
		Channel:      cfg.Channel,
		Metrics:      telemetry.NewOrdererMetrics(reg),
	}, ordID, leader)
	defer ord.Stop()
	// The orderer's own block ledger: every created block is appended here
	// before it enters the delivery window, so the delivery service can
	// stream arbitrarily old blocks to a peer that fell off the window
	// (the ledger-backed catch-up source).
	ordLed, err := ledger.Open(filepath.Join(dir, "orderer"), ledger.Options{})
	if err != nil {
		return nil, fmt.Errorf("cluster: orderer ledger: %w", err)
	}
	defer ordLed.Close()

	// Chaos fault plane. The victim of a peer-level fault is the last fast
	// peer (the observer never is); the slow-disk shim is installed at peer
	// construction, the partition switch and wire corrupter at delivery
	// registration, and the leader kill strikes the raft node the orderer
	// is bound to.
	faultIdx := -1
	if peerFault {
		faultIdx = opts.Peers - opts.SlowPeers - 1
	}
	var disk *chaos.DiskFault
	if fault == chaos.FaultSlowDisk {
		disk = &chaos.DiskFault{Latency: time.Millisecond, FailEvery: 3}
	}
	leaderIdx := -1
	for i, n := range rc.Nodes {
		if n == leader {
			leaderIdx = i
		}
	}

	// Software peers behind real gossip TCP listeners.
	peers := make([]*swPeer, 0, opts.Peers)
	defer func() {
		for _, p := range peers {
			p.ln.Close() // bmaclint:allow errdiscard (teardown: listener close error is unactionable)
			if p.started {
				<-p.done // commitLoop exits once the intake channel closes
			}
			p.node.Close() // bmaclint:allow errdiscard (teardown: the run's result is already decided)
		}
	}()
	// Per-peer state-database access counters, exported as scrape-time
	// gauges (a churn restart re-registers the replacement store under the
	// same name).
	registerStateDB := func(p *swPeer) {
		if reg == nil {
			return
		}
		st := p.node.Store()
		reg.GaugeFunc(telemetry.Name("statedb_reads_total", "peer", p.name),
			func() int64 { r, _ := st.AccessCounts(); return int64(r) })
		reg.GaugeFunc(telemetry.Name("statedb_writes_total", "peer", p.name),
			func() int64 { _, w := st.AccessCounts(); return int64(w) })
	}
	for i := 0; i < opts.Peers; i++ {
		var df *chaos.DiskFault
		if i == faultIdx {
			df = disk // nil unless the slow-disk fault is selected
		}
		p, err := newSWPeer(cfg, opts, i, filepath.Join(dir, fmt.Sprintf("peer%d", i)), df)
		if err != nil {
			return nil, err
		}
		peers = append(peers, p)
		registerStateDB(p)
	}

	// Optional BMac peer over the protocol path.
	var (
		bmacPeer *peer.BMacPeer
		sender   *bmacproto.Sender
	)
	if opts.BMacPeer {
		coreCfg, err := cfg.CoreConfig()
		if err != nil {
			return nil, err
		}
		bmacPeer, err = peer.NewBMacPeer(coreCfg, cfg.Arch.DBCapacity, filepath.Join(dir, "bmac_peer"))
		if err != nil {
			return nil, err
		}
		defer bmacPeer.Close()
		sender = bmacproto.NewSender(identity.NewCache(), bmacproto.NewMemLink(bmacPeer.Receiver))
		if err := sender.RegisterNetwork(net); err != nil {
			return nil, err
		}
	}

	// Bootstrap genesis state everywhere.
	w := client.SmallbankWorkload{Accounts: opts.Accounts, Skew: opts.Skew}
	stores := make([]statedb.KVS, 0, len(peers)+len(endorsers))
	for _, p := range peers {
		stores = append(stores, p.node.Store())
	}
	for _, e := range endorsers {
		stores = append(stores, e.Store())
	}
	if err := client.Bootstrap(w, registry, stores...); err != nil {
		return nil, err
	}
	if bmacPeer != nil {
		if err := client.BootstrapHardware(w, registry, peers[0].node.Store(), bmacPeer.Proc.DB()); err != nil {
			return nil, err
		}
	}
	// Genesis checkpoint: the bootstrap state exists in no ledger block,
	// so a peer restarted before its first periodic checkpoint must find
	// it on disk.
	for _, p := range peers {
		if err := p.node.Checkpoint(); err != nil {
			return nil, fmt.Errorf("cluster: genesis checkpoint for %s: %w", p.name, err)
		}
	}

	// Open-loop load.
	gen, err := load.New(load.Options{
		Rate:    opts.Rate,
		Arrival: opts.Arrival,
		Count:   opts.Txs,
		Seed:    opts.Seed,
		Metrics: telemetry.NewLoadMetrics(reg),
	})
	if err != nil {
		return nil, err
	}
	clientID, err := net.LookupByName("client0." + cfg.Orgs[0].Name)
	if err != nil {
		return nil, fmt.Errorf("cluster: first org needs a client: %w", err)
	}
	// The adversary taps the honest path to the orderer (capturing
	// envelopes for its replay corpus) and wraps every load client, so
	// hostile traffic rides the same open-loop schedule as honest traffic
	// at the configured fraction.
	var adv *chaos.Adversary
	var ordSubmit client.Submitter = ord
	if opts.Adversary > 0 {
		adv, err = chaos.NewAdversary(chaos.AdversaryOptions{
			Rate:    opts.Adversary,
			Seed:    opts.Seed,
			Channel: cfg.Channel,
		}, ord)
		if err != nil {
			return nil, err
		}
		ordSubmit = adv.Tap(ord)
	}
	drivers := make([]load.Submitter, opts.Clients)
	for i := range drivers {
		drivers[i] = client.NewDriver(clientID, endorsers, ordSubmit, w, cfg.Channel, opts.Seed+int64(100+i))
		if adv != nil {
			drivers[i] = adv.Wrap(drivers[i])
		}
	}
	// The flight recorder anchors the submit/endorse spans on per-tx submit
	// call windows; wrap every driver with a recording shim.
	var subTimes *submitTimes
	if rec != nil {
		subTimes = &submitTimes{times: make(map[string]submitWindow)}
		for i := range drivers {
			drivers[i] = &tracedSubmitter{inner: drivers[i], rec: subTimes}
		}
	}

	// Delivery service: every path is one per-peer pipe, with the
	// orderer's ledger as the catch-up source behind the window. Dial
	// targets are mutable so a churned peer's pipe follows it to the
	// listener it restarts on.
	window := opts.Window
	if window == 0 {
		window = cfg.Delivery.Window
	}
	churnIdx := -1
	if opts.Churn {
		churnIdx = opts.Peers - opts.SlowPeers - 1 // last fast peer; observer (0) never churns
	}
	svc := delivery.NewService(delivery.Options{
		Window:   window,
		History:  delivery.LedgerSource(ordLed),
		Registry: reg,
	})
	defer svc.Close()
	addrs := make([]*peerAddr, opts.Peers)
	var (
		partSwitch *chaos.Switch
		corrupter  *chaos.Corrupter
	)
	for i, p := range peers {
		addrs[i] = &peerAddr{addr: p.ln.Addr()}
		slowDelay := time.Duration(0)
		po := delivery.PeerOptions{
			Policy:     delivery.Disconnect,
			MaxRedials: cfg.Delivery.MaxRedials,
		}
		if p.slow {
			slowDelay = opts.SlowDelay
			po.Policy = slowPolicy
		}
		if i == churnIdx {
			// The churned peer is down for a while; give its pipe a long
			// redial budget so it survives until the restart.
			po.MaxRedials = 4000
			po.RedialWait = 5 * time.Millisecond
		}
		po.Dial = gossipDialer(addrs[i], slowDelay)
		if i == faultIdx {
			switch fault {
			case chaos.FaultPartition:
				// The victim's link runs through a severable switch. While
				// severed, sends and redials fail; the exponential backoff
				// cap keeps the pipe from spinning hot against the dead
				// link, and the long budget keeps it alive until the heal.
				partSwitch = &chaos.Switch{}
				po.MaxRedials = 4000
				po.RedialWait = 5 * time.Millisecond
				po.Dial = chaos.SeverableDialer(po.Dial, partSwitch)
			case chaos.FaultCorruption:
				// Every Nth frame to the victim is bit-flipped; the
				// receiver's decode rejection closes the connection, and
				// the peer self-heals through the gap -> Rewind path.
				corrupter = chaos.NewCorrupter(7)
				po.MaxRedials = 4000
				po.RedialWait = 2 * time.Millisecond
				po.Dial = corrupter.Dialer(addrs[i].get())
			}
		}
		t, err := po.Dial()
		if err != nil {
			return nil, err
		}
		if err := svc.Register(peers[i].name, t, po); err != nil {
			return nil, err
		}
	}
	if sender != nil {
		if err := svc.Register("bmac", delivery.NewBMacTransport(sender), delivery.PeerOptions{}); err != nil {
			return nil, err
		}
	}
	// Chaos-plane counters on the scrape endpoint: hostile traffic volume,
	// how much of it the observer flag-invalidated, and per-fault activity.
	if reg != nil {
		if adv != nil {
			reg.GaugeFunc("chaos_injected_hostile_total", func() int64 { return adv.Stats().Total() })
			obs := peers[0] // the observer never churns; the pointer is stable
			reg.GaugeFunc("chaos_rejected_invalid_total", func() int64 {
				obs.mu.Lock()
				defer obs.mu.Unlock()
				return int64(obs.txs - obs.validTxs)
			})
		}
		if partSwitch != nil {
			reg.GaugeFunc("chaos_partition_heals_total", partSwitch.Heals)
		}
		if corrupter != nil {
			reg.GaugeFunc("chaos_corrupted_frames_total", func() int64 { _, f := corrupter.Stats(); return f })
		}
		if disk != nil {
			reg.GaugeFunc("chaos_disk_fault_retries_total", func() int64 { _, f := disk.Stats(); return f })
		}
	}

	// The orderer's only hook appends the block to the orderer ledger
	// (feeding the catch-up source), records the block's tx ids for the
	// hardware latency join, and publishes into the delivery window; it
	// never blocks on a peer.
	var (
		txMu     sync.Mutex
		blockTxs = make(map[uint64][]string)
	)
	ord.OnDeliver(func(b *block.Block) error {
		if _, err := ordLed.Commit(b); err != nil {
			return fmt.Errorf("orderer ledger: %w", err)
		}
		if opts.BMacPeer {
			ids := make([]string, 0, len(b.Envelopes))
			for i := range b.Envelopes {
				if id, err := block.EnvelopeTxID(&b.Envelopes[i]); err == nil {
					ids = append(ids, id)
				}
			}
			txMu.Lock()
			blockTxs[b.Header.Number] = ids
			txMu.Unlock()
		}
		if rec == nil {
			return svc.Publish(b)
		}
		// Flight recorder: the block exists now, so its pre-delivery
		// lifecycle is known. submit = first scheduled arrival → first
		// submit call, endorse = submit calls in flight, order = last
		// submit returned → block created (batch wait + raft + signing),
		// publish = fan-out hand-off. The spans are anchored end-to-start
		// so the trace tiles the timeline without gaps.
		now := time.Now()
		num := b.Header.Number
		var minSched, minStart, maxEnd time.Time
		for i := range b.Envelopes {
			id, err := block.EnvelopeTxID(&b.Envelopes[i])
			if err != nil {
				continue
			}
			if w, ok := subTimes.lookup(id); ok {
				if minStart.IsZero() || w.start.Before(minStart) {
					minStart = w.start
				}
				if w.end.After(maxEnd) {
					maxEnd = w.end
				}
			}
			if t0, ok := gen.SubmitTime(id); ok {
				if minSched.IsZero() || t0.Before(minSched) {
					minSched = t0
				}
			}
		}
		// A submit record can trail its transaction into a block (the
		// generator stores it after SubmitTx returns); fall back so the
		// trace stays contiguous rather than dropping the block.
		if minStart.IsZero() {
			minStart = now
		}
		if minSched.IsZero() {
			minSched = minStart
		}
		if maxEnd.IsZero() {
			maxEnd = minStart
		}
		rec.Stamp(num, telemetry.StageSubmit, "", minSched, minStart, len(b.Envelopes))
		rec.Stamp(num, telemetry.StageEndorse, "", minStart, maxEnd, 0)
		rec.Stamp(num, telemetry.StageOrder, "", maxEnd, now, 0)
		pubStart := time.Now()
		err := svc.Publish(b)
		rec.Stamp(num, telemetry.StagePublish, "", pubStart, time.Now(), 0)
		return err
	})

	// Peer commit loops. Peer 0 is the observer: it records end-to-end
	// latency and plays the committer for the endorser world state. Fast
	// peers get a rewind hook: a delivery gap (frames lost when wire
	// corruption tore the connection down after the sender's cursor
	// advanced) moves the pipe cursor back for redelivery instead of
	// silently skipping blocks.
	rewindFor := func(p *swPeer) func(uint64) error {
		if p.slow {
			return nil // a slow DropBlocks peer skips by design
		}
		name := p.name
		return func(seq uint64) error { return svc.Rewind(name, seq) }
	}
	for i, p := range peers {
		p.started = true
		go p.commitLoop(i == 0, gen, endorsers, rec, rewindFor(p))
	}
	type hwObs struct {
		txid string
		at   time.Time
	}
	var (
		hwMu      sync.Mutex
		hwSamples metrics.Samples
		hwBlocks  uint64
		hwPending []hwObs // commits observed before the submit record landed
	)
	if bmacPeer != nil {
		go func() {
			for res := range bmacPeer.Results() {
				at := time.Now()
				txMu.Lock()
				ids := blockTxs[res.BlockNum]
				txMu.Unlock()
				hwMu.Lock()
				hwBlocks++
				for _, id := range ids {
					if t0, ok := gen.SubmitTime(id); ok {
						hwSamples.Add(at.Sub(t0))
					} else {
						hwPending = append(hwPending, hwObs{id, at})
					}
				}
				hwMu.Unlock()
			}
		}()
	}

	// The churn scenario, driven from the wait loop below: (1) once the
	// victim has committed ChurnAfter blocks, kill it — close its
	// listener, drain its commit loop, release its ledger; (2) once its
	// delivery cursor has fallen off the retained window (so the restart
	// must stream from the orderer's ledger), reopen the same directory:
	// checkpoint + ledger replay rebuild its state, the delivery pipe is
	// rewound to the recovered height, and the peer rejoins.
	var (
		churnPhase    = 0 // 0 armed, 1 down, 2 rejoined (or no churn)
		killHeight    uint64
		recoveredAt   uint64
		corruptedFile string
	)
	if churnIdx < 0 {
		churnPhase = 2
	}
	churnStep := func(runOver bool) error {
		if churnPhase == 2 {
			return nil
		}
		cp := peers[churnIdx]
		if churnPhase == 0 {
			cp.mu.Lock()
			blocks := cp.blocks
			cp.mu.Unlock()
			if blocks < opts.ChurnAfter && !runOver {
				return nil
			}
			cp.ln.Close() // bmaclint:allow errdiscard (teardown: listener close error is unactionable)
			if cp.started {
				<-cp.done // commit loop drains its intake, then exits
			}
			killHeight = cp.led.Height()
			if err := cp.node.Close(); err != nil {
				return fmt.Errorf("cluster: churn kill %s: %w", cp.name, err)
			}
			// Bit-rot strikes while the peer is down: flip a byte in its
			// oldest sealed segment. The restart's open-time checksum sweep
			// quarantines the file and the rewind below streams the lost
			// range back through delivery.
			if opts.ChurnCorrupt {
				f, err := chaos.CorruptSealedSegment(cp.dir)
				if err != nil {
					return fmt.Errorf("cluster: churn corrupt %s: %w", cp.name, err)
				}
				corruptedFile = filepath.Base(f)
			}
			churnPhase = 1
			return nil
		}
		// Phase 1: hold the peer down until catching up needs the ledger,
		// not just the window (unless the run is already over).
		if !runOver && svc.Height() < killHeight+uint64(window)+2 {
			return nil
		}
		np, err := newSWPeer(cfg, opts, churnIdx, cp.dir, nil)
		if err != nil {
			return fmt.Errorf("cluster: churn restart %s: %w", cp.name, err)
		}
		recoveredAt = np.next
		// Carry the pre-crash counters so the report covers the peer's
		// whole run.
		cp.mu.Lock()
		np.blocks, np.txs, np.validTxs = cp.blocks, cp.txs, cp.validTxs
		np.restarts = cp.restarts + 1
		np.lastCommit = cp.lastCommit
		cp.mu.Unlock()
		peers[churnIdx] = np
		// The replacement store's access counters take over the peer's
		// scrape-time gauges.
		registerStateDB(np)
		// The deliver protocol's catch-up request: resume this peer's pipe
		// from the height it recovered to — or from the first quarantined
		// hole below it, so the redelivered range doubles as the archive
		// refetch that Restore backfills. Rewind MUST land before the new
		// address is published — a pipe that reconnected first would
		// deliver from its stale pre-kill cursor, the recovered peer would
		// see a gap and stop committing, and a racing send could clobber
		// the moved cursor.
		rewindTo := np.next
		if mr := np.led.MissingRanges(); len(mr) > 0 && mr[0].First < rewindTo {
			rewindTo = mr[0].First
		}
		if err := svc.Rewind(np.name, rewindTo); err != nil {
			return fmt.Errorf("cluster: churn restart %s: %w", np.name, err)
		}
		addrs[churnIdx].set(np.ln.Addr())
		np.started = true
		go np.commitLoop(false, gen, endorsers, rec, rewindFor(np))
		churnPhase = 2
		return nil
	}

	// The chaos fault scenario, driven from the same wait loop. Partition:
	// sever the victim's link once delivery clears FaultAfter blocks, hold
	// it severed until the victim has fallen more than the retained window
	// behind (so the heal exercises redial + ledger catch-up, not just a
	// reconnect), then heal. Leader kill: stop the raft node the orderer is
	// bound to, poll the re-election, rebind the orderer to the new leader
	// (re-proposing cut-but-unapplied batches exactly once). Corruption and
	// slow disk run from the start and need no phase machinery.
	var (
		faultPhase   = 2 // 0 armed, 1 struck, 2 played out (or no phased fault)
		struckAt     uint64
		healedAt     uint64
		newLeaderIdx = -1
	)
	if fault == chaos.FaultPartition || fault == chaos.FaultLeaderKill {
		faultPhase = 0
	}
	faultStep := func(runOver bool) error {
		switch {
		case faultPhase == 2:
			return nil
		case fault == chaos.FaultPartition:
			if faultPhase == 0 {
				if svc.Height() < uint64(opts.FaultAfter) && !runOver {
					return nil
				}
				struckAt = svc.Height()
				partSwitch.Sever()
				faultPhase = 1
				return nil
			}
			if !runOver && svc.Height() < struckAt+uint64(window)+2 {
				return nil
			}
			partSwitch.Heal()
			healedAt = svc.Height()
			faultPhase = 2
			return nil
		case fault == chaos.FaultLeaderKill:
			if faultPhase == 0 {
				if svc.Height() < uint64(opts.FaultAfter) && !runOver {
					return nil
				}
				struckAt = svc.Height()
				rc.Nodes[leaderIdx].Stop()
				faultPhase = 1
				return nil
			}
			// Poll the election with a short per-step timeout so the wait
			// loop keeps servicing its other checks; until the rebind lands
			// the orderer's cut path parks batches as pending (ErrNotLeader
			// is swallowed as a transient) and the timer keeps retrying.
			nl, err := chaos.WaitForNewLeader(rc, leaderIdx, 10*time.Millisecond)
			if err != nil {
				return nil // election still in progress; retry next tick
			}
			if err := ord.Rebind(nl); err != nil {
				return nil // the new leader is still settling; retry next tick
			}
			for i, n := range rc.Nodes {
				if n == nl {
					newLeaderIdx = i
				}
			}
			healedAt = svc.Height()
			faultPhase = 2
			return nil
		}
		return nil
	}

	// Drive the load concurrently with the wait loop (so churn can strike
	// mid-submission), then wait for the observer peer to commit every
	// submitted transaction (valid or invalidated — each lands in a block
	// either way).
	start := time.Now()
	loadErr := make(chan error, 1)
	go func() { loadErr <- gen.Run(drivers) }()
	var (
		runErr     error
		loadDone   bool
		submitted  int
		late       int
		honestDone time.Time
	)
	deadline := time.Now().Add(opts.Timeout)
	for {
		if !loadDone {
			select {
			case runErr = <-loadErr:
				loadDone = true
				submitted, _, late = gen.Stats()
			default:
			}
		}
		if err := churnStep(false); err != nil {
			return nil, err
		}
		if err := faultStep(false); err != nil {
			return nil, err
		}
		peers[0].mu.Lock()
		committed := peers[0].txs
		err := peers[0].err
		peers[0].mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("cluster: observer peer: %w", err)
		}
		// With an adversary the observer's envelope count includes hostile
		// traffic, so completion is judged by honest transactions matched
		// back to their submissions.
		if adv != nil {
			_, committed, _ = gen.Stats()
		}
		if loadDone && committed >= submitted {
			honestDone = time.Now()
			break
		}
		if oerr := ord.Err(); oerr != nil {
			return nil, fmt.Errorf("cluster: orderer: %w", oerr)
		}
		// A dead pipe on a fast peer is fatal; a slow peer is allowed to
		// die of its configured policy (that is the experiment).
		for _, st := range svc.Stats() {
			if st.Err != nil && !isSlowName(peers, st.Name) {
				return nil, fmt.Errorf("cluster: delivery to %s: %w", st.Name, st.Err)
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: observer committed %d/%d txs after %v",
				committed, submitted, opts.Timeout)
		}
		time.Sleep(time.Millisecond)
	}
	// Finish the churn scenario if the run completed before it played out
	// (tiny runs): kill + immediate restart still exercises recovery.
	for churnPhase != 2 {
		if err := churnStep(true); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, errors.New("cluster: churn scenario did not complete in time")
		}
	}
	// Same for a phased chaos fault (partition heal, leader re-election):
	// even a run that finished before the fault window still plays the
	// strike + recovery through so the convergence gate means something.
	for faultPhase != 2 {
		if err := faultStep(true); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, errors.New("cluster: chaos fault scenario did not complete in time")
		}
		time.Sleep(time.Millisecond)
	}
	// Snapshot delivery stats now, while the contrast is visible: the
	// observer has everything, so a fast peer's lag is ~0 while the slow
	// peer still shows its backlog and drops.
	stats := make(map[string]delivery.PeerStats, opts.Peers+1)
	for _, st := range svc.Stats() {
		stats[st.Name] = st
	}
	// Let the remaining (fast and slow) pipes finish their backlog; the
	// slow peer's drop counter, not the drain, absorbs its overload.
	drainErr := svc.Drain(opts.Timeout)
	// Zero delivery lag only means the frames reached the sockets; wait
	// for every fast peer's ledger to reach the published height. The
	// target is re-read each pass — with an adversary, trailing
	// hostile-only batches can still cut on the batch timer after the
	// honest load completes, so the loop additionally requires the height
	// to hold still briefly before calling the run settled. A peer stalled
	// short of the target (a corrupted tail frame with no follow-on block
	// to expose the gap to its commit loop) gets its delivery cursor
	// rewound to its own height to force redelivery.
	settleDeadline := time.Now().Add(opts.Timeout)
	stableSince := time.Now()
	lastTarget := svc.Height()
	lastH := make(map[string]uint64, len(peers))
	lastHAt := make(map[string]time.Time, len(peers))
	for _, p := range peers {
		if !p.slow {
			lastH[p.name], lastHAt[p.name] = p.led.Height(), time.Now()
		}
	}
	for {
		target := svc.Height()
		if target != lastTarget {
			lastTarget = target
			stableSince = time.Now()
		}
		allAt := true
		for _, p := range peers {
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
				svc.Rewind(p.name, to) // bmaclint:allow errdiscard (best-effort nudge; the settle deadline bounds a stuck peer)
				lastHAt[p.name] = time.Now()
			}
		}
		if allAt && (adv == nil || time.Since(stableSince) > 150*time.Millisecond) {
			break
		}
		if time.Now().After(settleDeadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if bmacPeer != nil {
		// The protocol sender returned as soon as packets entered the
		// link; wait for the hardware pipeline to finish the tail.
		flushDeadline := time.Now().Add(opts.Timeout)
		for {
			hwMu.Lock()
			done := hwBlocks >= svc.Height()
			hwMu.Unlock()
			if done || time.Now().After(flushDeadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Report.
	sigH1, sigM1, _ := cfg.SigCache().Stats()
	parH1, parM1 := cfg.ParseCache().Stats()
	res := &Result{
		Mode:              opts.Mode,
		RaftNodes:         opts.RaftNodes,
		Submitted:         submitted,
		Late:              late,
		SWLatency:         gen.Latency(),
		SigCacheHitRate:   deltaRate(sigH1-sigH0, sigM1-sigM0),
		ParseCacheHitRate: deltaRate(parH1-parH0, parM1-parM0),
	}
	peers[0].mu.Lock()
	res.Blocks = peers[0].blocks
	res.Txs = peers[0].txs
	res.ValidTxs = peers[0].validTxs
	res.Elapsed = peers[0].lastCommit.Sub(start)
	res.HonestElapsed = honestDone.Sub(start)
	peers[0].mu.Unlock()
	if res.Elapsed > 0 {
		res.TPS = metrics.Throughput(res.Txs, res.Elapsed)
	}
	// Final per-peer delivery stats (the early snapshot preserved the
	// slow-peer contrast; catch-up counters only settle after the drain).
	finalStats := make(map[string]delivery.PeerStats, opts.Peers+1)
	for _, st := range svc.Stats() {
		finalStats[st.Name] = st
	}
	for _, p := range peers {
		p.mu.Lock()
		pr := PeerReport{
			Name:     p.name,
			Slow:     p.slow,
			Blocks:   p.blocks,
			Txs:      p.txs,
			ValidTxs: p.validTxs,
			Delivery: stats[p.name],
			Restarts: p.restarts,
		}
		p.mu.Unlock()
		pr.Delivery.CaughtUp = finalStats[p.name].CaughtUp
		pr.Height = p.led.Height()
		pr.Ledger = p.led.Stats()
		pr.StateHash = hex.EncodeToString(statedb.SnapshotHash(p.node.Store().Snapshot()))
		pr.CommitHash = hex.EncodeToString(p.led.LastCommitHash())
		res.Peers = append(res.Peers, pr)
	}
	// Convergence: every fast peer must have reached an identical chain
	// and state; slow peers may lag or drop by design.
	res.Converged = true
	ref := -1
	for i := range res.Peers {
		if res.Peers[i].Slow {
			continue
		}
		if ref < 0 {
			ref = i
			continue
		}
		if res.Peers[i].Height != res.Peers[ref].Height ||
			res.Peers[i].StateHash != res.Peers[ref].StateHash ||
			res.Peers[i].CommitHash != res.Peers[ref].CommitHash {
			res.Converged = false
		}
	}
	if churnIdx >= 0 {
		vs := peers[churnIdx].led.Stats()
		res.Churn = &ChurnReport{
			Peer:           peers[churnIdx].name,
			KillHeight:     killHeight,
			RecoveredAt:    recoveredAt,
			CaughtUp:       finalStats[peers[churnIdx].name].CaughtUp,
			Restarts:       peers[churnIdx].restarts,
			CorruptedFile:  corruptedFile,
			Quarantined:    vs.Quarantined,
			RestoredBlocks: vs.RestoredBlocks,
		}
	}
	if adv != nil {
		res.Adversary = &AdversaryReport{
			Rate:            opts.Adversary,
			Injected:        adv.Stats(),
			RejectedInvalid: res.Txs - res.ValidTxs,
		}
	}
	if fault != "" {
		cr := &ChaosReport{Fault: fault, StruckAt: struckAt, HealedAt: healedAt}
		if fault == chaos.FaultLeaderKill {
			cr.Victim = fmt.Sprintf("raft%d", leaderIdx)
			cr.KilledNode = leaderIdx
			cr.NewLeader = newLeaderIdx
		} else {
			victim := peers[faultIdx]
			cr.Victim = victim.name
			cr.LedgerRetries = victim.led.FaultRetries()
			if partSwitch != nil {
				cr.Heals = partSwitch.Heals()
			}
			if corrupter != nil {
				_, cr.CorruptedFrames = corrupter.Stats()
			}
			if disk != nil {
				cr.DiskWrites, cr.DiskFaults = disk.Stats()
			}
		}
		res.Chaos = cr
	}
	if bmacPeer != nil {
		res.BMacDelivery = stats["bmac"]
		hwMu.Lock()
		// Resolve commits that raced ahead of their submit record; every
		// submission is recorded by now (gen.Run returned).
		for _, o := range hwPending {
			if t0, ok := gen.SubmitTime(o.txid); ok {
				hwSamples.Add(o.at.Sub(t0))
			}
		}
		hwPending = nil
		res.HWLatency = hwSamples.Summary()
		hwMu.Unlock()
	}
	if rec != nil {
		res.Budget = rec.Budget()
		res.TraceEvents = rec.Len()
		if path := cfg.Telemetry.TraceFile; path != "" {
			f, err := os.Create(path)
			if err != nil {
				return res, fmt.Errorf("cluster: trace file: %w", err)
			}
			werr := rec.WriteJSONL(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return res, fmt.Errorf("cluster: trace file: %w", werr)
			}
			res.TraceFile = path
		}
	}
	if reg != nil {
		res.MetricsText = reg.Text()
	}
	if runErr != nil {
		return res, fmt.Errorf("cluster: load: %w", runErr)
	}
	if drainErr != nil {
		return res, drainErr
	}
	return res, nil
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

// newSWPeer builds one durable software peer for the selected validation
// path. Opening an existing dir recovers: checkpoint + ledger replay seed
// the state, and p.next reports the height the peer resumes from. A
// non-nil df installs the slow-disk fault shim under the peer's ledger
// and checkpoint writers.
func newSWPeer(cfg *config.Config, opts Options, i int, dir string, df *chaos.DiskFault) (*swPeer, error) {
	ln, err := gossip.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &swPeer{
		name: fmt.Sprintf("peer%d", i),
		slow: i >= opts.Peers-opts.SlowPeers,
		dir:  dir,
		ln:   ln,
		done: make(chan struct{}),
	}
	dopts := peer.DurableOptions{
		CheckpointEvery: opts.CheckpointEvery,
		KeepCheckpoints: cfg.Durability.KeepCheckpoints,
		SegmentBytes:    opts.SegmentBytes,
		Prune:           opts.Prune || cfg.Durability.Prune,
		NoFastSync:      opts.NoFastSync || cfg.Durability.NoFastSync,
		SyncEachBlock:   cfg.Durability.SyncEachBlock,
		Metrics:         telemetry.NewLedgerMetrics(cfg.TelemetryRegistry(), p.name),
	}
	if dopts.CheckpointEvery == 0 {
		dopts.CheckpointEvery = cfg.Durability.CheckpointEvery
	}
	if dopts.SegmentBytes == 0 {
		dopts.SegmentBytes = cfg.Durability.SegmentBytes
	}
	if df != nil {
		dopts.CommitFault = df.Hook()
		dopts.CheckpointFault = df.Hook()
	}
	node, led, err := openPeer(cfg, opts.Mode, dir, dopts)
	if err != nil {
		ln.Close() // bmaclint:allow errdiscard (error path: cleanup before returning the real error)
		return nil, err
	}
	p.node, p.led, p.next = node, led, node.Height()
	return p, nil
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

// openPeer opens (recovering) the durable software peer of the given
// validation path in dir, returning it with its ledger.
func openPeer(cfg *config.Config, mode string, dir string, dopts peer.DurableOptions) (committer, *ledger.Ledger, error) {
	switch mode {
	case Sequential:
		valCfg, err := cfg.ValidatorConfig(4)
		if err != nil {
			return nil, nil, err
		}
		store := statedb.NewStore()
		if cfg.StateDB.NoCountAccesses {
			store.SetCountAccesses(false)
		}
		sw, err := peer.NewDurableSWPeer(valCfg, store, dir, dopts)
		if err != nil {
			return nil, nil, err
		}
		return sw, sw.Ledger, nil
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
			return nil, nil, err
		}
		kvs, err := mcfg.NewKVS()
		if err != nil {
			return nil, nil, err
		}
		pp, err := peer.NewDurableParallelPeer(pipeCfg, kvs, dir, dopts)
		if err != nil {
			return nil, nil, err
		}
		return pp, pp.Ledger, nil
	}
	return nil, nil, fmt.Errorf("cluster: unknown mode %q (valid: %v)", mode, Modes())
}

// commitLoop drains the peer's gossip intake, committing blocks in
// delivery order. The observer additionally records end-to-end latency,
// applies committed writes to the endorser stores (committer role), and —
// when the flight recorder is on — stamps the block's peer-side lifecycle
// spans (deliver through commit, plus the enclosing e2e span).
func (p *swPeer) commitLoop(observer bool, gen *load.Generator, endorsers []*endorser.Endorser, rec *telemetry.Recorder, rewind func(uint64) error) {
	defer close(p.done)
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
			if rec != nil {
				p.stampBlock(rec, b, &res.Breakdown, recvAt, at)
			}
			for _, e := range endorsers {
				if err := client.ApplyBlock(e.Store(), b, res.Flags); err != nil {
					p.fail(err)
					return
				}
			}
			gen.ObserveBlock(b, at)
		}
		p.mu.Lock()
		p.blocks++
		p.txs += len(b.Envelopes)
		p.validTxs += block.CountValid(res.Flags)
		p.lastCommit = at
		p.mu.Unlock()
	}
}
