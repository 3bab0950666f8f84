package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/chaincode"
	"bmac/internal/client"
	"bmac/internal/config"
	"bmac/internal/endorser"
	"bmac/internal/identity"
	"bmac/internal/orderer"
	"bmac/internal/peer"
	"bmac/internal/raft"
	"bmac/internal/statedb"
	"bmac/internal/telemetry"
	"bmac/internal/wire"
)

// TopologyOptions are the Topology settings its users choose differently.
type TopologyOptions struct {
	RaftNodes    int // Raft cluster size (0 = 1, the paper's setup)
	BatchTimeout time.Duration
	Metrics      *telemetry.OrdererMetrics // nil: uninstrumented orderer
	BMacDir      string                    // adds a BMac peer with its ledger here ("": none)
}

// Topology is the network both harnesses run on — the paper's Fig. 8
// setup minus the software validator peers, which each harness opens its
// own way: the identity network, the chaincode registry, the endorser
// peers, a Raft cluster with the orderer bound to its elected leader, and
// optionally the BMac peer with its protocol sender. It also plays the
// committer for the endorsers (ApplyBlock).
type Topology struct {
	Net       *identity.Network
	Registry  *chaincode.Registry
	Endorsers []*endorser.Endorser
	Raft      *raft.Cluster
	Leader    int // index in Raft.Nodes of the node the orderer was bound to
	Orderer   *orderer.Orderer
	BMacPeer  *peer.BMacPeer    // nil without TopologyOptions.BMacDir
	Sender    *bmacproto.Sender // nil without TopologyOptions.BMacDir

	cfg *config.Config
	// commit keeps committer updates and endorsement rounds apart: ApplyBlock
	// holds it exclusively, a NewDriver driver shares it for one round.
	commit sync.RWMutex
}

// NewTopology builds and starts the network cfg declares. On error it
// releases everything it had built. Close the topology to stop it.
func NewTopology(cfg *config.Config, opts TopologyOptions) (t *Topology, err error) {
	// Hot-path marshal pooling is a process-wide switch; apply the config's
	// choice before any block is built or delivered.
	wire.SetBufferPooling(!cfg.Hotpath.NoMarshalPool)
	net, err := cfg.BuildNetwork()
	if err != nil {
		return nil, err
	}
	t = &Topology{Net: net, cfg: cfg,
		Registry: chaincode.NewRegistry(chaincode.Smallbank{}, chaincode.DRM{}, chaincode.SplitPay{})}
	defer func() {
		if err != nil {
			t.Close() // bmaclint:allow errdiscard (error path: the build error is the one to report)
			t = nil
		}
	}()
	for _, org := range cfg.Orgs {
		for i := 0; i < org.Endorsers; i++ {
			id, err := net.LookupByName(fmt.Sprintf("peer%d.%s", i, org.Name))
			if err != nil {
				return t, err
			}
			t.Endorsers = append(t.Endorsers, endorser.New(id, statedb.NewStore(), t.Registry))
		}
	}
	if len(t.Endorsers) == 0 {
		return t, errors.New("cluster: configuration declares no endorser peers")
	}
	ordID, err := net.LookupByName("orderer0." + cfg.Orgs[0].Name)
	if err != nil {
		return t, fmt.Errorf("cluster: first org needs an orderer: %w", err)
	}
	t.Raft = raft.NewCluster(max(opts.RaftNodes, 1), 20*time.Millisecond)
	leader := t.Raft.WaitForLeader(5 * time.Second)
	if leader == nil {
		return t, errors.New("cluster: raft leader election timed out")
	}
	t.Leader = slices.Index(t.Raft.Nodes, leader)
	t.Orderer = orderer.New(orderer.Config{
		BatchSize:    cfg.Arch.MaxBlockTxs,
		BatchTimeout: opts.BatchTimeout,
		Channel:      cfg.Channel,
		Metrics:      opts.Metrics,
	}, ordID, leader)
	if opts.BMacDir == "" {
		return t, nil
	}
	coreCfg, err := cfg.CoreConfig()
	if err != nil {
		return t, err
	}
	if t.BMacPeer, err = peer.NewBMacPeer(coreCfg, cfg.Arch.DBCapacity, opts.BMacDir); err != nil {
		return t, err
	}
	t.Sender = bmacproto.NewSender(identity.NewCache(), bmacproto.NewMemLink(t.BMacPeer.Receiver))
	return t, t.Sender.RegisterNetwork(net)
}

// NewDriver creates a load client with the first org's client identity,
// endorsing on every endorser and submitting to sub. Its endorsement
// rounds never interleave with ApplyBlock. The identity is looked up
// here, so a network without a client still builds.
func (t *Topology) NewDriver(w client.Workload, sub client.Submitter, seed int64) (*client.Driver, error) {
	id, err := t.Net.LookupByName("client0." + t.cfg.Orgs[0].Name)
	if err != nil {
		return nil, fmt.Errorf("cluster: first org needs a client: %w", err)
	}
	d := client.NewDriver(id, t.Endorsers, sub, w, t.cfg.Channel, seed)
	d.SetEndorseLock(t.commit.RLocker())
	return d, nil
}

// Bootstrap seeds the workload's genesis state into every endorser store,
// the extra stores (the validator peers') and the BMac peer's database.
func (t *Topology) Bootstrap(w client.Workload, extra ...statedb.KVS) error {
	stores := append([]statedb.KVS(nil), extra...)
	for _, e := range t.Endorsers {
		stores = append(stores, e.Store())
	}
	if err := client.Bootstrap(w, t.Registry, stores...); err != nil || t.BMacPeer == nil {
		return err
	}
	return client.BootstrapHardware(w, t.Registry, t.Endorsers[0].Store(), t.BMacPeer.Proc.DB())
}

// ApplyBlock is the committer role: it writes the valid transactions of a
// committed block into every endorser store, so later simulations read
// fresh versions.
func (t *Topology) ApplyBlock(b *block.Block, flags []byte) error {
	t.commit.Lock()
	defer t.commit.Unlock()
	for _, e := range t.Endorsers {
		if err := client.ApplyBlock(e.Store(), b, flags); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the orderer and the Raft cluster and closes the BMac peer,
// reporting the orderer's fatal error, else the BMac peer's close error.
func (t *Topology) Close() error {
	var err error
	if t.Orderer != nil {
		err = t.Orderer.Stop()
	}
	if t.Raft != nil {
		t.Raft.Stop()
	}
	if t.BMacPeer != nil {
		if cerr := t.BMacPeer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
