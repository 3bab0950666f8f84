package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"bmac/internal/block"
	"bmac/internal/endorser"
	"bmac/internal/fabcrypto"
	"bmac/internal/gossip"
	"bmac/internal/ledger"
	"bmac/internal/pipeline"
	"bmac/internal/statedb"
	"bmac/internal/validator"
)

// sideSamples bounds the per-call samples of the costlier side
// measurements (one ECDSA verify or endorsement each).
const sideSamples = 300

// layerStats are the traced run's side measurements: public calls of one
// layer, timed from outside on the chain's own blocks and transactions.
type layerStats struct {
	marshal, unmarshal []time.Duration
	unmarshalAllocs    uint64
	unmarshalTxs       int

	ledgerCommit []time.Duration
	ledgerBytes  int64
	ledgerTxs    int

	graphRatio float64 // sum over blocks of CriticalPath/N
	graphs     int
	edges, txs int

	verify  []time.Duration
	process []time.Duration
}

// decodeBlocks decodes the chain's gossip frames.
func decodeBlocks(c *chain) ([]*block.Block, error) {
	out := make([]*block.Block, len(c.frames))
	for i, f := range c.frames {
		b, _, err := gossip.ReadBlock(bytes.NewReader(f))
		if err != nil {
			return nil, fmt.Errorf("decode block %d: %w", i, err)
		}
		out[i] = b
	}
	return out, nil
}

// measureLayers runs every side measurement over chain c.
func measureLayers(c *chain, scratch string, seed int64, ls *layerStats, tr *tracer) error {
	blocks, err := decodeBlocks(c)
	if err != nil {
		return err
	}
	if err := measureCodec(blocks, ls, tr); err != nil {
		return err
	}
	if err := measureLedger(c, blocks, scratch, ls, tr); err != nil {
		return err
	}
	measureGraph(blocks, ls, tr)
	if err := measureVerify(blocks, ls, tr); err != nil {
		return err
	}
	return measureEndorse(c, seed, ls, tr)
}

func measureCodec(blocks []*block.Block, ls *layerStats, tr *tracer) error {
	raws := make([][]byte, len(blocks))
	for i, b := range blocks {
		sp := tr.begin("block.marshal", 0, int64(i))
		t := time.Now()
		raws[i] = block.Marshal(b)
		ls.marshal = append(ls.marshal, time.Since(t))
		tr.end(sp)
	}
	for i, raw := range raws {
		sp := tr.begin("block.unmarshal", 0, int64(i))
		t := time.Now()
		_, err := block.Unmarshal(raw)
		ls.unmarshal = append(ls.unmarshal, time.Since(t))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("unmarshal of a freshly marshaled block %d: %w", i, err)
		}
	}
	// Allocations are counted in a separate untimed loop: ReadMemStats
	// stops the world.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, raw := range raws {
		_, _ = block.Unmarshal(raw) // decoded without error above
	}
	runtime.ReadMemStats(&m1)
	ls.unmarshalAllocs += m1.Mallocs - m0.Mallocs
	for _, b := range blocks {
		ls.unmarshalTxs += len(b.Envelopes)
	}
	return nil
}

// measureLedger appends the chain, with its reference flags, to a side
// ledger and checks the commit-hash chain it computes.
func measureLedger(c *chain, blocks []*block.Block, scratch string, ls *layerStats, tr *tracer) error {
	dir := scratch + "/side-ledger"
	defer os.RemoveAll(dir) // scratch space; removal is best effort
	led, err := ledger.Open(dir, ledger.Options{SegmentBytes: c.spec.SegmentBytes})
	if err != nil {
		return fmt.Errorf("side ledger: %w", err)
	}
	for i, b := range blocks {
		b.Metadata.ValidationFlags = c.flags[i]
		sp := tr.begin("ledger.commit", 0, int64(i))
		t := time.Now()
		ch, err := led.Commit(b)
		ls.ledgerCommit = append(ls.ledgerCommit, time.Since(t))
		tr.end(sp)
		if err != nil {
			led.Close() // error path: the first error is returned
			return fmt.Errorf("side ledger commit %d: %w", i, err)
		}
		if !bytes.Equal(ch, c.commitHash[i]) {
			led.Close() // error path: the first error is returned
			return fmt.Errorf("%w: side ledger block %d commit hash differs from the reference", errMismatch, i)
		}
		ls.ledgerTxs += len(b.Envelopes)
	}
	ls.ledgerBytes += led.BytesWritten()
	return led.Close()
}

// measureGraph builds each block's dependency graph from its read/write
// sets, as the pipelined engine schedules it.
func measureGraph(blocks []*block.Block, ls *layerStats, tr *tracer) {
	for i, b := range blocks {
		accs := make([]pipeline.Access, 0, len(b.Envelopes))
		for j := range b.Envelopes {
			pt := validator.ParseTx(b.Envelopes[j].PayloadBytes)
			if pt.RW != nil {
				accs = append(accs, pipeline.AccessOf(pt.RW))
			}
		}
		sp := tr.begin("pipeline.graph", 0, int64(i))
		g := pipeline.BuildGraph(accs)
		tr.end(sp)
		if g.N() > 0 {
			ls.graphRatio += float64(g.CriticalPath()) / float64(g.N())
			ls.graphs++
			ls.edges += g.Edges()
			ls.txs += g.N()
		}
	}
}

// measureVerify times fabcrypto.VerifyDigest on the chain's own client
// signatures, without any cache.
func measureVerify(blocks []*block.Block, ls *layerStats, tr *tracer) error {
	n := 0
	for i, b := range blocks {
		for j := range b.Envelopes {
			if n == sideSamples {
				return nil
			}
			env := &b.Envelopes[j]
			pt := validator.ParseTx(env.PayloadBytes)
			if pt.Err != nil {
				return fmt.Errorf("block %d tx %d: %w", i, j, pt.Err)
			}
			pub, err := fabcrypto.PublicKeyFromCert(pt.Tx.SignatureHeader.Creator)
			if err != nil {
				return fmt.Errorf("block %d tx %d creator: %w", i, j, err)
			}
			digest := fabcrypto.HashSlice(env.PayloadBytes)
			sp := tr.begin("fabcrypto.verify", 0, int64(i))
			t := time.Now()
			err = fabcrypto.VerifyDigest(pub, digest, env.Signature)
			ls.verify = append(ls.verify, time.Since(t))
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%w: block %d tx %d client signature does not verify: %v", errMismatch, i, j, err)
			}
			n++
		}
	}
	return nil
}

// measureEndorse times endorser.Process on proposals drawn from the
// chain's workload, simulated against its genesis state.
func measureEndorse(c *chain, seed int64, ls *layerStats, tr *tracer) error {
	id, err := c.network.LookupByName("peer0.Org1")
	if err != nil {
		return err
	}
	cl, err := c.network.LookupByName("client0.Org1")
	if err != nil {
		return err
	}
	store := statedb.NewStore()
	statedb.RestoreSnapshot(store, c.genesis)
	e := endorser.New(id, store, c.registry)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < sideSamples; k++ {
		fn, args := c.workload.Next(rng)
		nonce := make([]byte, 24)
		rng.Read(nonce)
		prop := &endorser.Proposal{Chaincode: c.workload.Chaincode(), Function: fn, Args: args, Nonce: nonce, Creator: cl.Cert}
		sp := tr.begin("endorser.process", 0, -1)
		t := time.Now()
		_, err := e.Process(prop)
		ls.process = append(ls.process, time.Since(t))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("endorse %s: %w", fn, err)
		}
	}
	return nil
}
