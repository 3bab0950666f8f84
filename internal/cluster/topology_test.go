package cluster

import (
	"encoding/hex"
	mrand "math/rand"
	"slices"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/chaincode"
	"bmac/internal/client"
	"bmac/internal/config"
	"bmac/internal/endorser"
	"bmac/internal/statedb"
)

// hookCC writes key k on "write"; on "read" it runs onRead inside the
// endorser's simulation, then reads k.
type hookCC struct{ onRead func() }

func (hookCC) Name() string { return "hook" }

func (h hookCC) Invoke(stub *chaincode.Stub, fn string, args []string) error {
	if fn == "write" {
		stub.PutState("k", []byte(args[0]))
		return nil
	}
	h.onRead()
	stub.GetState("k")
	return nil
}

// hookCall is a workload that always invokes one hookCC function.
type hookCall string

func (hookCall) Chaincode() string                     { return "hook" }
func (c hookCall) Next(*mrand.Rand) (string, []string) { return string(c), []string{"v"} }
func (hookCall) Setup() []struct {
	Fn   string
	Args []string
} {
	return nil
}

// capture is an orderer stand-in keeping the last submitted envelope.
type capture struct{ env *block.Envelope }

func (c *capture) Submit(env *block.Envelope) error { c.env = env; return nil }

// TestApplyBlockWaitsForEndorsementRound pins the committer lock: a
// committer apply that starts while a driver is between two endorsements
// of one proposal must not touch any endorser store before the round
// returns, or the endorsers can read different versions and disagree.
func TestApplyBlockWaitsForEndorsementRound(t *testing.T) {
	cfg := config.Default()
	top, err := NewTopology(cfg, TopologyOptions{BatchTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()
	if len(top.Endorsers) < 2 {
		t.Fatalf("need two endorsers, have %d", len(top.Endorsers))
	}
	var onRead func()
	reg := chaincode.NewRegistry(hookCC{onRead: func() { onRead() }})
	for i, e := range top.Endorsers {
		top.Endorsers[i] = endorser.New(e.Identity(), statedb.NewStore(), reg)
	}
	hashes := func() []string {
		var out []string
		for _, e := range top.Endorsers {
			out = append(out, hex.EncodeToString(statedb.SnapshotHash(e.Store().Snapshot())))
		}
		return out
	}

	// The block to apply: one valid transaction writing k.
	var sub capture
	id, err := top.Net.LookupByName("client0." + cfg.Orgs[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.NewDriver(id, top.Endorsers, &sub, hookCall("write"), cfg.Channel, 1).SubmitOne(); err != nil {
		t.Fatal(err)
	}
	b := &block.Block{Header: block.Header{Number: 1}, Envelopes: []block.Envelope{*sub.env}}
	flags := []byte{byte(block.Valid)}

	before := hashes()
	var applyErr error
	applied := make(chan struct{})
	calls := 0
	onRead = func() {
		calls++
		switch calls {
		case 1: // first endorser: start the apply mid-round
			go func() {
				defer close(applied)
				applyErr = top.ApplyBlock(b, flags)
			}()
			// An apply that does not wait for the round ends well inside
			// this window.
			select {
			case <-applied:
				t.Error("a committer apply completed inside the endorsement round")
			case <-time.After(50 * time.Millisecond):
			}
		case len(top.Endorsers): // last endorser of the first round
			if !slices.Equal(hashes(), before) {
				t.Error("an endorser store changed inside the endorsement round")
			}
		}
	}
	d, err := top.NewDriver(hookCall("read"), &sub, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SubmitOne(); err != nil {
		t.Fatal(err)
	}
	<-applied
	if applyErr != nil {
		t.Fatal(applyErr)
	}
	if slices.Equal(hashes(), before) {
		t.Error("the apply never reached the endorser stores")
	}
}
