package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bmac/internal/config"
	"bmac/internal/ledger"
	"bmac/internal/peer"
	"bmac/internal/statedb"
)

// recoverStats accumulates the recover phase.
type recoverStats struct {
	times    []time.Duration // NewDurableSWPeer over the reference directory
	cpu      []time.Duration // process CPU time of the same calls
	replayed []int           // ledger blocks past the newest checkpoint generation

	// Layer data, read by the traced run.
	open       []time.Duration // ledger.Open
	get        []time.Duration // ledger.Get, per block
	restore    []time.Duration // statedb.LoadCheckpoint + RestoreSnapshot
	checkpoint []time.Duration // statedb.SaveCheckpoint of the final state
}

// durableOptions is the reference peer's on-disk shape.
func (s chainSpec) durableOptions() peer.DurableOptions {
	return peer.DurableOptions{CheckpointEvery: s.CheckpointEvery, SegmentBytes: s.SegmentBytes}
}

// recoverOnce restarts a durable sequential peer over the ledger and
// checkpoint generations the reference peer wrote, and checks that it
// resumes at full height with the reference state and commit hash.
func recoverOnce(c *chain, rs *recoverStats, tr *tracer) error {
	vc, err := config.Default().ValidatorConfig(4)
	if err != nil {
		return err
	}
	sp := tr.begin("peer.recover", 0, -1)
	c0, t := cpuTime(), time.Now()
	p, err := peer.NewDurableSWPeer(vc, statedb.NewStore(), c.dir, c.spec.durableOptions())
	d, cpu := time.Since(t), cpuTime()-c0
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	err = c.checkRecovered(p)
	if cerr := p.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("recover: close: %w", cerr)
	}
	if err != nil {
		return err
	}
	refs, _ := statedb.Checkpoints(c.dir, peer.CheckpointFile)
	if len(refs) == 0 {
		return fmt.Errorf("recover: no checkpoint generation in %s", c.dir)
	}
	rs.times = append(rs.times, d)
	rs.cpu = append(rs.cpu, cpu)
	rs.replayed = append(rs.replayed, len(c.frames)-int(refs[0].Height))
	return nil
}

func (c *chain) checkRecovered(p *peer.SWPeer) error {
	last := len(c.commitHash) - 1
	if h := p.Height(); h != uint64(len(c.frames)) {
		return fmt.Errorf("%w: recovered peer at height %d, want %d", errMismatch, h, len(c.frames))
	}
	if !bytes.Equal(p.Ledger.LastCommitHash(), c.commitHash[last]) {
		return fmt.Errorf("%w: recovered peer commit hash differs from the reference", errMismatch)
	}
	if got := statedb.SnapshotHash(p.Validator.Store().Snapshot()); !bytes.Equal(got, c.stateHash) {
		return fmt.Errorf("%w: recovered peer state hash differs from the reference", errMismatch)
	}
	return nil
}

// measureStorage times, from outside, the storage calls recovery is made
// of: ledger open and block reads, restore of the newest checkpoint
// generation, and a checkpoint write of that state into scratch.
func measureStorage(c *chain, scratch string, rs *recoverStats, tr *tracer) error {
	sp := tr.begin("ledger.open", 0, -1)
	t := time.Now()
	led, err := ledger.Open(c.dir, ledger.Options{SegmentBytes: c.spec.SegmentBytes})
	rs.open = append(rs.open, time.Since(t))
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("ledger open: %w", err)
	}
	for n := uint64(0); n < led.Height(); n++ {
		sp := tr.begin("ledger.get", 0, int64(n))
		t := time.Now()
		_, err := led.Get(n)
		rs.get = append(rs.get, time.Since(t))
		tr.end(sp)
		if err != nil {
			led.Close() // error path: the first error is returned
			return fmt.Errorf("ledger get %d: %w", n, err)
		}
	}
	if err := led.Close(); err != nil {
		return fmt.Errorf("ledger close: %w", err)
	}

	refs, _ := statedb.Checkpoints(c.dir, peer.CheckpointFile)
	if len(refs) == 0 {
		return fmt.Errorf("no checkpoint generation in %s", c.dir)
	}
	sp = tr.begin("statedb.restore", 0, -1)
	t = time.Now()
	snap, h, err := statedb.LoadCheckpoint(filepath.Join(c.dir, refs[0].File))
	kvs := statedb.NewStore()
	if err == nil {
		statedb.RestoreSnapshot(kvs, snap)
	}
	rs.restore = append(rs.restore, time.Since(t))
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("load checkpoint: %w", err)
	}

	path := filepath.Join(scratch, "checkpoint")
	sp = tr.begin("statedb.checkpoint", 0, -1)
	t = time.Now()
	err = statedb.SaveCheckpoint(path, kvs, h)
	rs.checkpoint = append(rs.checkpoint, time.Since(t))
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("save checkpoint: %w", err)
	}
	return os.Remove(path)
}
