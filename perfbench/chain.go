package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/chaincode"
	"bmac/internal/client"
	"bmac/internal/config"
	"bmac/internal/endorser"
	"bmac/internal/gossip"
	"bmac/internal/identity"
	"bmac/internal/orderer"
	"bmac/internal/peer"
	"bmac/internal/raft"
	"bmac/internal/statedb"
)

// chainSpec sizes one replay chain.
type chainSpec struct {
	Accounts int
	Skew     float64
	Blocks   int
	BlockTxs int
	// CheckpointEvery and SegmentBytes shape the reference peer's durable
	// store, which the recover phase reopens.
	CheckpointEvery int
	SegmentBytes    int64
}

// chain is one seeded block sequence, built through the program's own
// client -> endorser -> orderer path, plus the reference outcome every
// replay path must reproduce.
type chain struct {
	spec     chainSpec
	workload client.SmallbankWorkload
	registry *chaincode.Registry
	network  *identity.Network
	channel  string
	genesis  map[string]statedb.VersionedValue

	frames   [][]byte   // one gossip frame per block
	packets  [][][]byte // BMac protocol packets per block
	syncPkts [][]byte   // identity cache-sync packets preceding the first block

	flags       [][]byte // reference validation flags per block
	commitHash  [][]byte // reference commit-hash chain per block
	stateHash   []byte   // reference final state (statedb.SnapshotHash)
	txs         int
	valid       int
	conflicts   int // MVCC read conflicts: with one block in flight, all intra-block
	gossipBytes int
	bmacBytes   int

	// dir holds the reference peer's ledger and checkpoint generations.
	dir string
}

// buildStats are the set-up-side layer measurements of the chain builds.
type buildStats struct {
	submit []time.Duration // client.Driver.SubmitTx per tx
	cut    []time.Duration // last Submit of a batch -> OnDeliver
	encode []time.Duration // bmacproto.Sender.EncodeBlock per block
}

// timedSubmitter wraps the orderer so the benchmark sees each Submit: the
// time of the last one opens the batch-cut interval.
type timedSubmitter struct {
	ord  *orderer.Orderer
	tr   *tracer
	root int

	mu   sync.Mutex
	last time.Time // guarded by mu
}

func (s *timedSubmitter) Submit(env *block.Envelope) error {
	id := s.tr.begin("orderer.submit", s.root, -1)
	err := s.ord.Submit(env)
	s.tr.end(id)
	s.mu.Lock()
	s.last = time.Now()
	s.mu.Unlock()
	return err
}

func (s *timedSubmitter) lastSubmit() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// builder holds what one chain build wires together.
type builder struct {
	c         *chain
	ref       *peer.SWPeer // reference validator; also the recover phase's input
	endorsers []*endorser.Endorser
	sender    *bmacproto.Sender
	sub       *timedSubmitter
	tr        *tracer
	root      int // the build's root span
	bs        *buildStats
}

// buildChain generates spec.Blocks blocks of spec.BlockTxs smallbank
// transactions from seed into a chain whose reference peer lives in dir.
// Exactly one block is in flight: the client submits a full batch, the
// orderer cuts it on size, the reference peer validates it and the
// endorsers apply it before the next proposal is simulated. Block
// boundaries and validity flags therefore depend only on the seed;
// signatures and nonces are fresh on every build.
func buildChain(spec chainSpec, seed int64, dir string, tr *tracer, bs *buildStats) (*chain, error) {
	cfg := config.Default()
	net, err := cfg.BuildNetwork()
	if err != nil {
		return nil, fmt.Errorf("chain: network: %w", err)
	}
	c := &chain{
		spec:     spec,
		workload: client.SmallbankWorkload{Accounts: spec.Accounts, Skew: spec.Skew},
		registry: chaincode.NewRegistry(chaincode.Smallbank{}),
		network:  net,
		channel:  cfg.Channel,
		dir:      dir,
	}
	bl := &builder{c: c, tr: tr, root: tr.begin("setup.chain", 0, -1), bs: bs}
	defer tr.end(bl.root)

	for _, name := range []string{"peer0.Org1", "peer0.Org2"} {
		id, err := net.LookupByName(name)
		if err != nil {
			return nil, fmt.Errorf("chain: %w", err)
		}
		bl.endorsers = append(bl.endorsers, endorser.New(id, statedb.NewStore(), c.registry))
	}
	genesis := statedb.NewStore()
	stores := []statedb.KVS{genesis}
	for _, e := range bl.endorsers {
		stores = append(stores, e.Store())
	}
	if err := client.Bootstrap(c.workload, c.registry, stores...); err != nil {
		return nil, fmt.Errorf("chain: bootstrap: %w", err)
	}
	c.genesis = genesis.Snapshot()

	// The reference peer is durable with a small segment budget and a
	// checkpoint cadence, so its directory doubles as the recover phase's
	// input: sealed segments, checkpoint generations and a ledger tail.
	valCfg, err := config.Default().ValidatorConfig(4)
	if err != nil {
		return nil, fmt.Errorf("chain: %w", err)
	}
	bl.ref, err = peer.NewDurableSWPeer(valCfg, statedb.NewStore(), dir, spec.durableOptions())
	if err != nil {
		return nil, fmt.Errorf("chain: reference peer: %w", err)
	}
	err = bl.generate(seed)
	if cerr := bl.ref.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("chain: reference peer close: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// generate runs the client -> endorser -> orderer loop into the reference
// peer.
func (bl *builder) generate(seed int64) error {
	c := bl.c
	statedb.RestoreSnapshot(bl.ref.Validator.Store(), c.genesis)
	if err := bl.ref.Checkpoint(); err != nil {
		return fmt.Errorf("chain: genesis checkpoint: %w", err)
	}
	bl.sender = bmacproto.NewSender(identity.NewCache(), bmacproto.SinkFunc(func(p []byte) error {
		c.syncPkts = append(c.syncPkts, p)
		return nil
	}))
	if err := bl.sender.RegisterNetwork(c.network); err != nil {
		return fmt.Errorf("chain: bmac identities: %w", err)
	}
	ordID, err := c.network.LookupByName("orderer0.Org1")
	if err != nil {
		return fmt.Errorf("chain: %w", err)
	}
	clientID, err := c.network.LookupByName("client0.Org1")
	if err != nil {
		return fmt.Errorf("chain: %w", err)
	}

	rc := raft.NewCluster(1, 20*time.Millisecond)
	defer rc.Stop()
	leader := rc.WaitForLeader(5 * time.Second)
	if leader == nil {
		return errors.New("chain: raft leader election timed out")
	}
	// The batch timer never fires: every block is cut on size.
	ord := orderer.New(orderer.Config{BatchSize: c.spec.BlockTxs, BatchTimeout: time.Hour, Channel: c.channel}, ordID, leader)
	bl.sub = &timedSubmitter{ord: ord, tr: bl.tr, root: bl.root}
	delivered := make(chan error, 1)
	ord.OnDeliver(func(b *block.Block) error {
		err := bl.deliver(b)
		delivered <- err
		return err
	})

	drv := client.NewDriver(clientID, bl.endorsers, bl.sub, c.workload, c.channel, seed)
	err = bl.drive(drv, delivered)
	if serr := ord.Stop(); err == nil && serr != nil {
		err = fmt.Errorf("chain: orderer: %w", serr)
	}
	if err != nil {
		return err
	}
	c.stateHash = statedb.SnapshotHash(bl.ref.Validator.Store().Snapshot())
	return nil
}

// drive submits one full batch at a time and waits for its block.
func (bl *builder) drive(drv *client.Driver, delivered <-chan error) error {
	for n := 0; n < bl.c.spec.Blocks; n++ {
		for i := 0; i < bl.c.spec.BlockTxs; i++ {
			id := bl.tr.begin("client.submit", bl.root, int64(n))
			t := time.Now()
			_, err := drv.SubmitTx()
			d := time.Since(t)
			bl.tr.end(id)
			if err != nil {
				return fmt.Errorf("chain: block %d tx %d: %w", n, i, err)
			}
			if bl.bs != nil {
				bl.bs.submit = append(bl.bs.submit, d)
			}
		}
		select {
		case err := <-delivered:
			if err != nil {
				return err
			}
		case <-time.After(30 * time.Second):
			return fmt.Errorf("chain: block %d was not delivered", n)
		}
	}
	return nil
}

// deliver is the orderer hook of the chain build: reference validation,
// the endorsers' committer role, and the two wire encodings of the block.
func (bl *builder) deliver(b *block.Block) error {
	c, tr := bl.c, bl.tr
	lastSubmit := bl.sub.lastSubmit()
	cut := time.Since(lastSubmit)
	num := int64(b.Header.Number)
	tr.record("orderer.cut", bl.root, num, lastSubmit, time.Now())
	sp := tr.begin("peer.commit", bl.root, num)
	res, err := bl.ref.CommitBlock(b)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("chain: reference commit block %d: %w", num, err)
	}
	for _, e := range bl.endorsers {
		if err := client.ApplyBlock(e.Store(), b, res.Flags); err != nil {
			return fmt.Errorf("chain: endorser apply block %d: %w", num, err)
		}
	}
	var buf bytes.Buffer
	sp = tr.begin("gossip.write", bl.root, num)
	_, err = gossip.WriteBlock(&buf, b)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("chain: gossip frame %d: %w", num, err)
	}
	sp = tr.begin("bmacproto.encode", bl.root, num)
	t := time.Now()
	pkts, st, err := bl.sender.EncodeBlock(b)
	enc := time.Since(t)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("chain: bmac packets %d: %w", num, err)
	}
	c.frames = append(c.frames, buf.Bytes())
	c.packets = append(c.packets, pkts)
	c.flags = append(c.flags, res.Flags)
	c.commitHash = append(c.commitHash, res.CommitHash)
	c.gossipBytes += buf.Len()
	c.bmacBytes += st.Bytes
	c.txs += len(res.Flags)
	for _, f := range res.Flags {
		switch block.ValidationCode(f) {
		case block.Valid:
			c.valid++
		case block.MVCCReadConflict:
			c.conflicts++
		}
	}
	if bl.bs != nil {
		bl.bs.cut = append(bl.bs.cut, cut)
		bl.bs.encode = append(bl.bs.encode, enc)
	}
	return nil
}

// validShare and conflictShare describe the chain for the run log.
func (c *chain) validShare() float64    { return float64(c.valid) / float64(c.txs) }
func (c *chain) conflictShare() float64 { return float64(c.conflicts) / float64(c.txs) }
