package peer

import (
	"bytes"
	"fmt"
	"testing"

	"bmac/internal/block"
	"bmac/internal/identity"
	"bmac/internal/pipeline"
	"bmac/internal/policy"
	"bmac/internal/policy/policytest"
	"bmac/internal/statedb"
	"bmac/internal/validator"
)

// chainFixture builds deterministic block chains with a mix of valid and
// invalid transactions, so replay has real validation flags to honor.
type chainFixture struct {
	client  *identity.Identity
	orderer *identity.Identity
	end     *identity.Identity
	pols    map[string]*policy.Policy
}

func newChainFixture(t *testing.T) *chainFixture {
	t.Helper()
	net := identity.NewNetwork()
	if _, err := net.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, err := net.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	orderer, err := net.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	end, err := net.NewIdentity("Org1", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	return &chainFixture{
		client:  client,
		orderer: orderer,
		end:     end,
		pols:    map[string]*policy.Policy{"cc": policytest.MustParse("1of1")},
	}
}

// chain builds n blocks of 4 transactions each: writes to rotating keys,
// occasional stale reads (mvcc invalidations) and corrupt signatures
// (vscc invalidations), chained by previous hash.
func (f *chainFixture) chain(t *testing.T, n int) []*block.Block {
	t.Helper()
	var out []*block.Block
	var prev []byte
	for bn := uint64(0); bn < uint64(n); bn++ {
		envs := make([]block.Envelope, 0, 4)
		for i := 0; i < 4; i++ {
			rw := block.RWSet{Writes: []block.KVWrite{{
				Key:   fmt.Sprintf("acct%d", i),
				Value: []byte{byte(bn), byte(i)},
			}}}
			spec := block.TxSpec{
				Creator: f.client, Chaincode: "cc", Channel: "ch",
				RWSet: rw, Endorsers: []*identity.Identity{f.end},
			}
			if bn > 1 && i == 1 {
				// Stale read: endorsed against a version two blocks old.
				spec.RWSet.Reads = []block.KVRead{{
					Key:     "acct1",
					Version: block.Version{BlockNum: bn - 2, TxNum: 1},
				}}
			}
			if i == 3 && bn%2 == 1 {
				spec.CorruptClientSig = true
			}
			env, err := block.NewEndorsedEnvelope(spec)
			if err != nil {
				t.Fatal(err)
			}
			envs = append(envs, *env)
		}
		b, err := block.NewBlock(bn, prev, envs, f.orderer)
		if err != nil {
			t.Fatal(err)
		}
		prev = block.HeaderHash(&b.Header)
		out = append(out, b)
	}
	return out
}

// TestSWPeerRestartReplaysLedger is the core recovery contract, without
// checkpoints: a restarted peer replays its whole ledger and ends with a
// state hash and commit hash identical to a peer that never stopped, then
// keeps committing on the same chain.
func TestSWPeerRestartReplaysLedger(t *testing.T) {
	f := newChainFixture(t)
	blocks := f.chain(t, 6)
	cfg := validator.Config{Workers: 2, Policies: f.pols}

	refPeer, err := NewDurableSWPeer(cfg, statedb.NewStore(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer refPeer.Close()

	dir := t.TempDir()
	p, err := NewDurableSWPeer(cfg, statedb.NewStore(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks[:4] {
		if _, err := refPeer.CommitBlock(b); err != nil {
			t.Fatal(err)
		}
		if _, err := p.CommitBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: ledger replay only (no checkpoint was ever written).
	p2, err := NewDurableSWPeer(cfg, statedb.NewStore(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.Height() != 4 {
		t.Fatalf("recovered height = %d, want 4", p2.Height())
	}
	wantState := statedb.SnapshotHash(refPeer.Validator.Store().Snapshot())
	if got := statedb.SnapshotHash(p2.Validator.Store().Snapshot()); !bytes.Equal(got, wantState) {
		t.Fatal("replayed state hash diverges from live-commit state hash")
	}

	// The chain continues: both peers commit the remaining blocks and stay
	// bit-identical.
	for _, b := range blocks[4:] {
		refRes, err := refPeer.CommitBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p2.CommitBlock(b)
		if err != nil {
			t.Fatalf("commit after restart: %v", err)
		}
		if !bytes.Equal(refRes.CommitHash, res.CommitHash) {
			t.Fatalf("block %d: commit hash diverges after restart", b.Header.Number)
		}
	}
	if !statedb.SnapshotsEqual(refPeer.Validator.Store().Snapshot(), p2.Validator.Store().Snapshot()) {
		t.Error("states diverge after post-restart commits")
	}
	if !bytes.Equal(refPeer.Ledger.LastCommitHash(), p2.Ledger.LastCommitHash()) {
		t.Error("ledger commit hash chains diverge")
	}
}

// TestDurablePeerCheckpointSuffixReplay proves the checkpoint shortcut:
// with CheckpointEvery=2 over 5 blocks, a restart loads the block-3
// checkpoint and replays only the suffix — and the result is identical to
// a full replay. Runs the matrix of both engines and all three statedb
// backends.
func TestDurablePeerCheckpointSuffixReplay(t *testing.T) {
	f := newChainFixture(t)
	blocks := f.chain(t, 5)

	kvsFor := func(backend string) statedb.KVS {
		switch backend {
		case "sharded":
			return statedb.NewShardedStore(4)
		case "hybrid":
			return statedb.NewHybridKVS(8, statedb.NewStore())
		default:
			return statedb.NewStore()
		}
	}
	// Both software peers serve this through their shared commit core.
	type durablePeer interface {
		CommitBlock(*block.Block) (CommitResult, error)
		Store() statedb.KVS
		Height() uint64
		Close() error
	}
	opts := DurableOptions{CheckpointEvery: 2}
	builders := map[string]func(kvs statedb.KVS, dir string) (durablePeer, error){
		"sw": func(kvs statedb.KVS, dir string) (durablePeer, error) {
			return NewDurableSWPeer(validator.Config{Workers: 2, Policies: f.pols}, kvs, dir, opts)
		},
		"parallel": func(kvs statedb.KVS, dir string) (durablePeer, error) {
			return NewDurableParallelPeer(pipeline.Config{Workers: 2, Policies: f.pols}, kvs, dir, opts)
		},
	}

	for engine, openPeer := range builders {
		for _, backend := range []string{"memory", "sharded", "hybrid"} {
			t.Run(engine+"/"+backend, func(t *testing.T) {
				dir := t.TempDir()
				p, err := openPeer(kvsFor(backend), dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range blocks {
					if _, err := p.CommitBlock(b); err != nil {
						t.Fatal(err)
					}
				}
				want := statedb.SnapshotHash(p.Store().Snapshot())
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}

				// The block-3 checkpoint generation must exist and restrict
				// replay to the suffix.
				refs, _ := statedb.Checkpoints(dir, "")
				if len(refs) == 0 {
					t.Fatal("no periodic checkpoint generation")
				}
				_, h, err := statedb.LoadCheckpoint(dir + "/" + refs[0].File)
				if err != nil {
					t.Fatalf("no periodic checkpoint: %v", err)
				}
				if h != 4 {
					t.Errorf("checkpoint height = %d, want 4 (after block 3)", h)
				}

				p2, err := openPeer(kvsFor(backend), dir)
				if err != nil {
					t.Fatalf("restart: %v", err)
				}
				defer p2.Close()
				if p2.Height() != 5 {
					t.Fatalf("recovered height = %d, want 5", p2.Height())
				}
				if got := statedb.SnapshotHash(p2.Store().Snapshot()); !bytes.Equal(got, want) {
					t.Fatal("checkpoint + suffix replay diverges from live state")
				}
			})
		}
	}
}

// TestRecoverStateRejectsCheckpointAheadOfLedger pins the safety check: a
// checkpoint claiming more blocks than the ledger holds cannot recover.
func TestRecoverStateRejectsCheckpointAheadOfLedger(t *testing.T) {
	f := newChainFixture(t)
	blocks := f.chain(t, 2)
	dir := t.TempDir()
	p, err := NewDurableSWPeer(validator.Config{Workers: 1, Policies: f.pols},
		statedb.NewStore(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if _, err := p.CommitBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint claiming height 7 against a 2-block ledger.
	if err := statedb.SaveCheckpoint(dir+"/"+CheckpointFile, p.Validator.Store(), 7); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurableSWPeer(validator.Config{Workers: 1, Policies: f.pols}, statedb.NewStore(), dir, DurableOptions{}); err == nil {
		t.Fatal("checkpoint ahead of ledger accepted")
	}
}
