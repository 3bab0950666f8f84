package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"time"

	"bmac/internal/block"
	"bmac/internal/client"
	"bmac/internal/config"
	"bmac/internal/core"
	"bmac/internal/gossip"
	"bmac/internal/peer"
	"bmac/internal/statedb"
	"bmac/internal/validator"
)

// Replay path names, used as metric prefixes.
const (
	pathSeq  = "seq"
	pathPar  = "par"
	pathBMac = "bmac"
)

var paths = []string{pathSeq, pathPar, pathBMac}

// errMismatch marks a replay, recovery or cluster outcome that differs
// from the reference: the run is incorrect, not merely slow.
var errMismatch = errors.New("cross-check mismatch")

// pathStats accumulates one replay path's measurements over a run.
type pathStats struct {
	lat     []time.Duration // per block: frame or first packet -> commit result
	cpu     []time.Duration // per block: process CPU time over the same interval
	passTPS []float64       // committed tx/s of each replay pass
	txs     int
	blocks  int

	// Layer data, read by the traced run.
	read    time.Duration       // gossip.ReadBlock
	commit  time.Duration       // CommitBlock call
	bd      validator.Breakdown // summed engine breakdowns
	hw      core.Stats          // summed BMac block_monitor stats
	receive time.Duration       // BMac ProcessPacket calls
	reads   int                 // statedb accesses
	writes  int
	sig     hitMiss
	cert    hitMiss
	parse   hitMiss
}

// busy is the time the path spent committing blocks.
func (p *pathStats) busy() time.Duration { return sum(p.lat) }

type hitMiss struct{ hits, misses int64 }

func (h hitMiss) ratio() float64 {
	if h.hits+h.misses == 0 {
		return 0
	}
	return float64(h.hits) / float64(h.hits+h.misses)
}

func (h hitMiss) minus(o hitMiss) hitMiss { return hitMiss{h.hits - o.hits, h.misses - o.misses} }
func (h *hitMiss) add(o hitMiss)          { h.hits += o.hits; h.misses += o.misses }

// cacheStats reads the hot-path caches a Config hands its validators.
func cacheStats(cc *config.Config) (sig, cert, parse hitMiss) {
	sig.hits, sig.misses, _ = cc.SigCache().Stats()
	cert.hits, cert.misses = cc.CertCache().Stats()
	parse.hits, parse.misses = cc.ParseCache().Stats()
	return
}

// swPeer is what the replay needs of peer.SWPeer and peer.ParallelPeer.
type swPeer interface {
	CommitBlock(*block.Block) (peer.CommitResult, error)
	Close() error
}

// newSWPeer opens a fresh software peer of the given path in dir, with the
// validator caches of cc, and loads the chain's genesis state into it.
func newSWPeer(path string, c *chain, cc *config.Config, dir string) (swPeer, statedb.KVS, error) {
	kvs := statedb.NewStore()
	statedb.RestoreSnapshot(kvs, c.genesis)
	switch path {
	case pathSeq:
		vc, err := cc.ValidatorConfig(4)
		if err != nil {
			return nil, nil, err
		}
		p, err := peer.NewDurableSWPeer(vc, kvs, dir, peer.DurableOptions{})
		return p, kvs, err
	case pathPar:
		pc, err := cc.PipelineConfig()
		if err != nil {
			return nil, nil, err
		}
		p, err := peer.NewDurableParallelPeer(pc, kvs, dir, peer.DurableOptions{})
		return p, kvs, err
	}
	return nil, nil, fmt.Errorf("unknown software path %q", path)
}

// replaySW feeds every gossip frame of c to a fresh software peer the way
// the cluster commit loop does (gossip.ReadBlock, then CommitBlock) and
// checks each block and the final state against the reference.
func replaySW(path string, c *chain, cc *config.Config, dir string, ps *pathStats, tr *tracer) error {
	defer os.RemoveAll(dir) // scratch space; removal is best effort
	p, kvs, err := newSWPeer(path, c, cc, dir)
	if err != nil {
		return fmt.Errorf("%s peer: %w", path, err)
	}
	r0, w0 := kvs.AccessCounts()
	sig0, cert0, parse0 := cacheStats(cc)
	err = replayFrames(path, c, p, ps, tr)
	if cerr := p.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s peer close: %w", path, cerr)
	}
	if err != nil {
		return err
	}
	r1, w1 := kvs.AccessCounts()
	ps.reads += r1 - r0
	ps.writes += w1 - w0
	sig1, cert1, parse1 := cacheStats(cc)
	ps.sig.add(sig1.minus(sig0))
	ps.cert.add(cert1.minus(cert0))
	ps.parse.add(parse1.minus(parse0))
	if got := statedb.SnapshotHash(kvs.Snapshot()); !bytes.Equal(got, c.stateHash) {
		return fmt.Errorf("%w: %s final state hash differs from the reference", errMismatch, path)
	}
	return nil
}

func replayFrames(path string, c *chain, p swPeer, ps *pathStats, tr *tracer) error {
	busy, txs := ps.busy(), ps.txs
	for i := range c.frames {
		if err := c.replayFrame(path, i, p, ps, tr); err != nil {
			return err
		}
	}
	ps.endPass(busy, txs)
	return nil
}

// endPass records the tx/s of the pass that started at the given totals.
func (p *pathStats) endPass(busy time.Duration, txs int) {
	p.passTPS = append(p.passTPS, float64(p.txs-txs)/(p.busy()-busy).Seconds())
}

// replayFrame decodes and commits block i, timing the two calls.
func (c *chain) replayFrame(path string, i int, p swPeer, ps *pathStats, tr *tracer) error {
	root := tr.begin("replay."+path, 0, int64(i))
	defer tr.end(root)
	sp := tr.begin("gossip.read", root, int64(i))
	c0, t0 := cpuTime(), time.Now()
	b, _, err := gossip.ReadBlock(bytes.NewReader(c.frames[i]))
	t1 := time.Now()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: gossip read block %d: %w", path, i, err)
	}
	sp = tr.begin("peer.commit", root, int64(i))
	res, err := p.CommitBlock(b)
	t2, c2 := time.Now(), cpuTime()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: commit block %d: %w", path, i, err)
	}
	if err := c.check(path, i, res); err != nil {
		return err
	}
	ps.lat = append(ps.lat, t2.Sub(t0))
	ps.cpu = append(ps.cpu, c2-c0)
	ps.read += t1.Sub(t0)
	ps.commit += t2.Sub(t1)
	ps.bd.Add(res.Breakdown)
	ps.txs += len(res.Flags)
	ps.blocks++
	return nil
}

// check compares one block's commit result with the reference.
func (c *chain) check(path string, i int, res peer.CommitResult) error {
	if res.BlockNum != uint64(i) {
		return fmt.Errorf("%w: %s committed block %d, want %d", errMismatch, path, res.BlockNum, i)
	}
	if !block.FlagsEqual(res.Flags, c.flags[i]) {
		return fmt.Errorf("%w: %s block %d validation flags differ from the reference", errMismatch, path, i)
	}
	if !bytes.Equal(res.CommitHash, c.commitHash[i]) {
		return fmt.Errorf("%w: %s block %d commit hash differs from the reference", errMismatch, path, i)
	}
	return nil
}

// replayBMac feeds every block of c as BMac protocol packets to a fresh
// hardware peer, one block at a time, and checks each result and the final
// hardware database against the reference.
func replayBMac(c *chain, dir string, ps *pathStats, tr *tracer) error {
	cfg := config.Default()
	coreCfg, err := cfg.CoreConfig()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) // scratch space; removal is best effort
	p, err := peer.NewBMacPeer(coreCfg, cfg.Arch.DBCapacity, dir)
	if err != nil {
		return fmt.Errorf("bmac peer: %w", err)
	}
	genesis := statedb.NewStore()
	statedb.RestoreSnapshot(genesis, c.genesis)
	err = c.feedBMac(p, genesis, ps, tr)
	if cerr := p.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("bmac peer close: %w", cerr)
	}
	return err
}

func (c *chain) feedBMac(p *peer.BMacPeer, genesis statedb.KVS, ps *pathStats, tr *tracer) error {
	if err := client.BootstrapHardware(c.workload, c.registry, genesis, p.Proc.DB()); err != nil {
		return err
	}
	for _, pkt := range c.syncPkts {
		if err := p.ProcessPacket(pkt); err != nil {
			return fmt.Errorf("bmac: identity sync: %w", err)
		}
	}
	busy, txs := ps.busy(), ps.txs
	for i := range c.packets {
		if err := c.feedBlock(i, p, ps, tr); err != nil {
			return err
		}
	}
	ps.endPass(busy, txs)
	if got := statedb.SnapshotHash(p.Proc.DB().Snapshot()); !bytes.Equal(got, c.stateHash) {
		return fmt.Errorf("%w: bmac final hardware state hash differs from the reference", errMismatch)
	}
	return nil
}

// feedBlock sends block i's packets and waits for its commit result.
func (c *chain) feedBlock(i int, p *peer.BMacPeer, ps *pathStats, tr *tracer) error {
	root := tr.begin("replay.bmac", 0, int64(i))
	defer tr.end(root)
	sp := tr.begin("bmacproto.receive", root, int64(i))
	c0, t0 := cpuTime(), time.Now()
	for _, pkt := range c.packets[i] {
		if err := p.ProcessPacket(pkt); err != nil {
			tr.end(sp)
			return fmt.Errorf("bmac: block %d packet: %w", i, err)
		}
	}
	t1 := time.Now()
	tr.end(sp)
	sp = tr.begin("core.result", root, int64(i))
	var res peer.CommitResult
	var ok bool
	select {
	case res, ok = <-p.Results():
	case <-time.After(30 * time.Second):
	}
	t2, c2 := time.Now(), cpuTime()
	tr.end(sp)
	if !ok {
		return fmt.Errorf("bmac: no result for block %d: %v", i, p.Err())
	}
	if err := c.check(pathBMac, i, res); err != nil {
		return err
	}
	ps.lat = append(ps.lat, t2.Sub(t0))
	ps.cpu = append(ps.cpu, c2-c0)
	ps.receive += t1.Sub(t0)
	addHW(&ps.hw, res.HWStats)
	ps.txs += len(res.Flags)
	ps.blocks++
	return nil
}

func addHW(total *core.Stats, s core.Stats) {
	total.BlockVerifyTime += s.BlockVerifyTime
	total.ValidateTime += s.ValidateTime
	total.MVCCCommitTime += s.MVCCCommitTime
	total.TxCount += s.TxCount
	total.EndsVerified += s.EndsVerified
	total.EndsSkipped += s.EndsSkipped
	total.EngineInvokes += s.EngineInvokes
}
