package peer

import (
	"bytes"
	"net"
	"path/filepath"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/core"
	"bmac/internal/gossip"
	"bmac/internal/identity"
	"bmac/internal/ledger"
	"bmac/internal/orderer"
	"bmac/internal/pipeline"
	"bmac/internal/policy"
	"bmac/internal/policy/policytest"
	"bmac/internal/raft"
	"bmac/internal/statedb"
	"bmac/internal/validator"
)

// TestEndToEndNetworkEquivalence reproduces the paper's experimental setup
// (Figure 8) in miniature: a 2-org network with an orderer delivering the
// same blocks to a software validator peer via Gossip (TCP) and to a BMac
// peer via the BMac protocol (UDP). As in §4.1, the block and transaction
// valid/invalid flags and the commit hash must match between the peers.
func TestEndToEndNetworkEquivalence(t *testing.T) {
	// --- identities ---
	network := identity.NewNetwork()
	for _, org := range []string{"Org1", "Org2"} {
		if _, err := network.AddOrg(org); err != nil {
			t.Fatal(err)
		}
	}
	client, err := network.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	ordID, err := network.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := network.NewIdentity("Org1", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := network.NewIdentity("Org2", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}

	// --- peers ---
	swPeer, err := NewDurableSWPeer(validator.Config{
		Workers:  4,
		Policies: map[string]*policy.Policy{"smallbank": policytest.MustParse("2of2")},
	}, statedb.NewStore(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer swPeer.Close()

	bmacPeer, err := NewBMacPeer(core.Config{
		TxValidators: 4,
		VSCCEngines:  2,
		Policies: map[string]*policy.Circuit{
			"smallbank": policy.Compile(policytest.MustParse("2of2")),
		},
	}, 8192, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer bmacPeer.Close()

	// --- transports ---
	swListener, err := gossip.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer swListener.Close()
	udp, err := bmacproto.ListenUDP("127.0.0.1:0", bmacPeer.Receiver)
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()

	gossipConn, err := net.Dial("tcp", swListener.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer gossipConn.Close()
	sink, err := bmacproto.DialUDP(udp.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	bmacSender := bmacproto.NewSender(identity.NewCache(), sink)
	if err := bmacSender.RegisterNetwork(network); err != nil {
		t.Fatal(err)
	}

	// --- ordering service (single-node raft, as in the paper) ---
	cluster := raft.NewCluster(1, 20*time.Millisecond)
	defer cluster.Stop()
	if cluster.WaitForLeader(3*time.Second) == nil {
		t.Fatal("no raft leader")
	}
	ord := orderer.New(orderer.Config{BatchSize: 5, BatchTimeout: time.Hour, Channel: "ch1"},
		ordID, cluster.Nodes[0])
	defer ord.Stop()
	// The orderer sends through our protocol right before Gossip (§3.5).
	ord.OnDeliver(func(b *block.Block) error {
		if _, err := bmacSender.SendBlock(b); err != nil {
			return err
		}
		_, err := gossip.WriteBlock(gossipConn, b)
		return err
	})

	// --- submit transactions (some deliberately invalid) ---
	const blocks, perBlock = 3, 5
	for i := 0; i < blocks*perBlock; i++ {
		spec := block.TxSpec{
			Creator:   client,
			Chaincode: "smallbank",
			Channel:   "ch1",
			RWSet: block.RWSet{
				Reads:  []block.KVRead{{Key: "cold" + string(rune('A'+i)), Version: block.Version{}}},
				Writes: []block.KVWrite{{Key: "key" + string(rune('A'+i)), Value: []byte{byte(i)}}},
			},
			Endorsers: []*identity.Identity{p1, p2},
		}
		if i%7 == 3 {
			spec.CorruptClientSig = true
		}
		if i%5 == 4 {
			spec.CorruptEndorsementIdx = 2
		}
		env, err := block.NewEndorsedEnvelope(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := ord.Submit(env); err != nil {
			t.Fatal(err)
		}
	}

	// --- collect and compare ---
	for n := 0; n < blocks; n++ {
		var swRes CommitResult
		select {
		case b := <-swListener.Blocks():
			res, err := swPeer.CommitBlock(b)
			if err != nil {
				t.Fatal(err)
			}
			swRes = res
		case <-time.After(10 * time.Second):
			t.Fatalf("sw peer: block %d never arrived", n)
		}

		var hwRes CommitResult
		select {
		case hwRes = <-bmacPeer.Results():
		case <-time.After(10 * time.Second):
			t.Fatalf("bmac peer: block %d never committed", n)
		}

		if swRes.BlockNum != hwRes.BlockNum {
			t.Fatalf("block number mismatch: sw %d, hw %d", swRes.BlockNum, hwRes.BlockNum)
		}
		if !block.FlagsEqual(swRes.Flags, hwRes.Flags) {
			t.Errorf("block %d flags diverge:\n  sw: %v\n  hw: %v", n, swRes.Flags, hwRes.Flags)
		}
		if !bytes.Equal(swRes.CommitHash, hwRes.CommitHash) {
			t.Errorf("block %d commit hash diverges", n)
		}
	}
	if err := bmacPeer.Err(); err != nil {
		t.Fatal(err)
	}

	// State databases converged.
	if !statedb.SnapshotsEqual(swPeer.Validator.Store().Snapshot(), bmacPeer.Proc.DB().Snapshot()) {
		t.Error("state databases diverge after 3 blocks")
	}
	// Ledgers agree on height and final commit hash.
	if swPeer.Ledger.Height() != bmacPeer.Ledger.Height() {
		t.Errorf("heights: sw %d, hw %d", swPeer.Ledger.Height(), bmacPeer.Ledger.Height())
	}
	if !bytes.Equal(swPeer.Ledger.LastCommitHash(), bmacPeer.Ledger.LastCommitHash()) {
		t.Error("final ledger commit hashes diverge")
	}
}

func TestBMacPeerInMemoryPipeline(t *testing.T) {
	net := identity.NewNetwork()
	if _, err := net.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, _ := net.NewIdentity("Org1", identity.RoleClient)
	ordID, _ := net.NewIdentity("Org1", identity.RoleOrderer)
	p1, _ := net.NewIdentity("Org1", identity.RolePeer)

	peerNode, err := NewBMacPeer(core.Config{
		TxValidators: 2,
		VSCCEngines:  2,
		Policies:     map[string]*policy.Circuit{"cc": policy.Compile(policytest.MustParse("1of1"))},
	}, 1024, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer peerNode.Close()

	link := bmacproto.NewMemLink(peerNode.Receiver)
	sender := bmacproto.NewSender(identity.NewCache(), link)
	if err := sender.RegisterNetwork(net); err != nil {
		t.Fatal(err)
	}

	var prev []byte
	for n := uint64(0); n < 5; n++ {
		env, err := block.NewEndorsedEnvelope(block.TxSpec{
			Creator: client, Chaincode: "cc", Channel: "ch",
			RWSet:     block.RWSet{Writes: []block.KVWrite{{Key: "k", Value: []byte{byte(n)}}}},
			Endorsers: []*identity.Identity{p1},
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := block.NewBlock(n, prev, []block.Envelope{*env}, ordID)
		if err != nil {
			t.Fatal(err)
		}
		prev = block.HeaderHash(&b.Header)
		if _, err := sender.SendBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	for n := uint64(0); n < 5; n++ {
		res, ok := <-peerNode.Results()
		if !ok {
			t.Fatalf("results closed at block %d", n)
		}
		if res.BlockNum != n || !res.BlockValid {
			t.Errorf("block %d: %+v", n, res)
		}
	}
	if peerNode.Ledger.Height() != 5 {
		t.Errorf("ledger height = %d", peerNode.Ledger.Height())
	}
	// The hardware stats flowed through.
	if err := peerNode.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBMacPeerDataHashMismatch tampers an envelope in flight: the streamed
// data-hash check fails, so the CPU side invalidates every transaction in
// the block but still commits it to the ledger with invalid flags.
func TestBMacPeerDataHashMismatch(t *testing.T) {
	net := identity.NewNetwork()
	if _, err := net.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, _ := net.NewIdentity("Org1", identity.RoleClient)
	ordID, _ := net.NewIdentity("Org1", identity.RoleOrderer)
	p1, _ := net.NewIdentity("Org1", identity.RolePeer)

	peerNode, err := NewBMacPeer(core.Config{
		TxValidators: 2,
		VSCCEngines:  1,
		Policies:     map[string]*policy.Circuit{"cc": policy.Compile(policytest.MustParse("1of1"))},
	}, 64, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer peerNode.Close()

	link := bmacproto.NewMemLink(peerNode.Receiver)
	sender := bmacproto.NewSender(identity.NewCache(), link)
	if err := sender.RegisterNetwork(net); err != nil {
		t.Fatal(err)
	}

	env, err := block.NewEndorsedEnvelope(block.TxSpec{
		Creator: client, Chaincode: "cc", Channel: "ch",
		Endorsers: []*identity.Identity{p1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := block.NewBlock(0, nil, []block.Envelope{*env}, ordID)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper AFTER the data hash was computed: the reconstructed stream
	// will not hash to Header.DataHash.
	b.Envelopes[0].Signature[4] ^= 0xff
	if _, err := sender.SendBlock(b); err != nil {
		t.Fatal(err)
	}

	res, ok := <-peerNode.Results()
	if !ok {
		t.Fatal("no result")
	}
	if res.BlockValid {
		t.Error("block with broken data hash reported valid")
	}
	for i, f := range res.Flags {
		if block.ValidationCode(f) == block.Valid {
			t.Errorf("tx %d valid despite data hash mismatch", i)
		}
	}
	if peerNode.Ledger.Height() != 1 {
		t.Errorf("height = %d; invalid blocks are still appended with invalid flags", peerNode.Ledger.Height())
	}
	if err := peerNode.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSWPeerRejectsTamperedBlock(t *testing.T) {
	net := identity.NewNetwork()
	if _, err := net.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, _ := net.NewIdentity("Org1", identity.RoleClient)
	ordID, _ := net.NewIdentity("Org1", identity.RoleOrderer)

	swPeer, err := NewDurableSWPeer(validator.Config{
		Workers:  2,
		Policies: map[string]*policy.Policy{"cc": policytest.MustParse("1of1")},
	}, statedb.NewStore(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer swPeer.Close()

	env, err := block.NewEndorsedEnvelope(block.TxSpec{Creator: client, Chaincode: "cc", Channel: "ch"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := block.NewBlock(0, nil, []block.Envelope{*env}, ordID)
	if err != nil {
		t.Fatal(err)
	}
	b.Metadata.Signature.Signature[3] ^= 0xff
	if _, err := swPeer.CommitBlock(b); err == nil {
		t.Error("tampered orderer signature accepted")
	}
}

// TestParallelPeerMatchesSWPeer commits the same blocks through an SWPeer
// and a ParallelPeer and requires identical flags, commit hashes and
// ledger heights — the three-way cross-check the Testbed performs, in
// miniature. Both peers validate the caller's decoded block without
// writing it, and their verdicts must equal a reference validator's that
// decodes its own marshaled copy of every block.
func TestParallelPeerMatchesSWPeer(t *testing.T) {
	net := identity.NewNetwork()
	if _, err := net.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, _ := net.NewIdentity("Org1", identity.RoleClient)
	ordID, _ := net.NewIdentity("Org1", identity.RoleOrderer)
	endorser, _ := net.NewIdentity("Org1", identity.RolePeer)
	pols := map[string]*policy.Policy{"cc": policytest.MustParse("1of1")}

	swPeer, err := NewDurableSWPeer(validator.Config{Workers: 2, Policies: pols},
		statedb.NewStore(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer swPeer.Close()
	parPeer, err := NewDurableParallelPeer(pipeline.Config{Workers: 4, Policies: pols},
		statedb.NewStore(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer parPeer.Close()
	refLedger, err := ledger.Open(filepath.Join(t.TempDir(), "ref"), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer refLedger.Close()
	ref := validator.New(validator.Config{Workers: 1, Policies: pols}, statedb.NewStore(), refLedger)

	var prevHash []byte
	for n := uint64(0); n < 3; n++ {
		envs := make([]block.Envelope, 0, 4)
		for i := 0; i < 4; i++ {
			rw := block.RWSet{Writes: []block.KVWrite{{
				Key:   "acct" + string(rune('0'+i)),
				Value: []byte{byte(n)},
			}}}
			if n > 0 && i == 0 {
				rw.Reads = []block.KVRead{{
					Key:     "acct0",
					Version: block.Version{BlockNum: n - 1, TxNum: 0},
				}}
			}
			env, err := block.NewEndorsedEnvelope(block.TxSpec{
				Creator: client, Chaincode: "cc", Channel: "ch",
				RWSet: rw, Endorsers: []*identity.Identity{endorser},
			})
			if err != nil {
				t.Fatal(err)
			}
			envs = append(envs, *env)
		}
		b, err := block.NewBlock(n, prevHash, envs, ordID)
		if err != nil {
			t.Fatal(err)
		}
		prevHash = block.HeaderHash(&b.Header)
		recvFlags := bytes.Clone(b.Metadata.ValidationFlags)
		recvHash := bytes.Clone(b.Metadata.CommitHash)
		swRes, err := swPeer.CommitBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		parRes, err := parPeer.CommitBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Metadata.ValidationFlags, recvFlags) || !bytes.Equal(b.Metadata.CommitHash, recvHash) {
			t.Fatalf("block %d: CommitBlock wrote the caller's block metadata", n)
		}
		refRes, err := ref.ValidateAndCommit(block.Marshal(b))
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]CommitResult{"sw": swRes, "par": parRes} {
			if !block.FlagsEqual(res.Flags, refRes.Flags) {
				t.Fatalf("block %d: %s flags %v, reference %v", n, name, res.Flags, refRes.Flags)
			}
			if !bytes.Equal(res.CommitHash, refRes.CommitHash) {
				t.Fatalf("block %d: %s commit hash diverges from the reference", n, name)
			}
		}
	}
	if swPeer.Ledger.Height() != parPeer.Ledger.Height() {
		t.Error("ledger heights diverge")
	}
	if !statedb.SnapshotsEqual(
		swPeer.Store().Snapshot(), parPeer.Store().Snapshot()) {
		t.Error("state diverged")
	}
}
