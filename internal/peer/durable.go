// Durability: the ledger-backed crash-recovery path of the software peers.
//
// A peer's state database is in-memory; what survives a crash is the
// segmented ledger (internal/ledger) and the retained state checkpoint
// generations (internal/statedb manifest). Recovery composes the two as
// snapshot fast-sync: restore the newest usable checkpoint, then replay
// only the ledger tail past it — a peer that was days behind pays for the
// tail, not the whole chain. A corrupt or ledger-ahead generation falls
// back to an older one (costing extra replay, never the peer); a
// quarantined ledger range above the chosen checkpoint rolls the ledger
// back to the gap's edge so delivery recommits across it. A peer restarted
// this way resumes at its ledger height with a state database
// bit-identical to one that never crashed.

package peer

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"bmac/internal/block"
	"bmac/internal/ledger"
	"bmac/internal/pipeline"
	"bmac/internal/statedb"
	"bmac/internal/telemetry"
	"bmac/internal/validator"
)

// CheckpointFile is the legacy single-generation checkpoint name. Peers
// now write manifest-managed generations ("checkpoint-<height>"); this
// file is still honored on recovery (tried last) so pre-manifest peer
// directories keep fast-syncing.
const CheckpointFile = "checkpoint"

// DurableOptions configure ledger-backed durability for a software peer.
type DurableOptions struct {
	// CheckpointEvery writes a state checkpoint after every N committed
	// blocks (through CommitBlock); 0 disables periodic checkpoints, so
	// recovery replays the whole ledger (plus whatever checkpoint was
	// written explicitly, e.g. the genesis checkpoint).
	CheckpointEvery int
	// KeepCheckpoints is how many checkpoint generations to retain
	// (<= 0 means statedb.DefaultKeepCheckpoints). More generations mean
	// more corruption fallback at more disk.
	KeepCheckpoints int
	// SegmentBytes is the ledger's segment rotation budget (see
	// ledger.Options.SegmentBytes); 0 means the ledger default.
	SegmentBytes int64
	// Prune, when set, prunes ledger segments wholly covered by every
	// retained checkpoint generation after each successful checkpoint,
	// bounding disk growth. Pruned blocks are gone from this peer's
	// archive (delivery catch-up below the prune floor reports
	// ledger.ErrPruned).
	Prune bool
	// NoFastSync recovers from the *oldest* retained checkpoint instead of
	// the newest, maximizing replay. It exists for measurement (the
	// fastsync experiment's full-replay baseline), not production.
	NoFastSync bool
	// SyncEachBlock fsyncs the ledger after every block commit.
	SyncEachBlock bool
	// CommitFault, when set, is the ledger's pre-append fault hook (see
	// ledger.Options.CommitFault) — the chaos slow-disk scenario.
	CommitFault func() error
	// CheckpointFault, when set, is the checkpoint writer's pre-write
	// fault hook (see statedb.SaveCheckpointFault).
	CheckpointFault func() error
	// Metrics mirrors the ledger's segment lifecycle counters into a
	// telemetry registry (zero value: telemetry off).
	Metrics telemetry.LedgerMetrics
}

// ledgerOptions maps the durable options onto the ledger's.
func (o DurableOptions) ledgerOptions() ledger.Options {
	return ledger.Options{
		SegmentBytes:  o.SegmentBytes,
		SyncEachBlock: o.SyncEachBlock,
		CommitFault:   o.CommitFault,
		Metrics:       o.Metrics,
	}
}

// NewDurableSWPeer opens (or reopens) a sequential software peer in dir
// over the given state-database backend. An existing ledger is replayed on
// top of the newest usable checkpoint generation (snapshot fast-sync), so
// a restarted peer resumes from its last committed block; Height reports
// where that is.
func NewDurableSWPeer(cfg validator.Config, kvs statedb.KVS, dir string, opts DurableOptions) (*SWPeer, error) {
	led, err := open("sw", kvs, dir, cfg.ParseCache, opts)
	if err != nil {
		return nil, err
	}
	v := validator.New(cfg, kvs, led)
	return &SWPeer{Validator: v, swCore: swCore{Ledger: led, eng: v, dir: dir, opts: opts}}, nil
}

// NewDurableParallelPeer opens (or reopens) a parallel pipelined peer in
// dir over the given state-database backend, with the same recovery
// semantics as NewDurableSWPeer.
func NewDurableParallelPeer(cfg pipeline.Config, kvs statedb.KVS, dir string, opts DurableOptions) (*ParallelPeer, error) {
	led, err := open("parallel", kvs, dir, cfg.ParseCache, opts)
	if err != nil {
		return nil, err
	}
	e := pipeline.New(cfg, kvs, led)
	return &ParallelPeer{Engine: e, swCore: swCore{Ledger: led, eng: e, dir: dir, opts: opts}}, nil
}

// open opens the ledger in dir and recovers kvs from it, for both durable
// constructors. kind names the peer in the ledger-open error.
func open(kind string, kvs statedb.KVS, dir string, pc *validator.ParseCache, opts DurableOptions) (*ledger.Ledger, error) {
	led, err := ledger.Open(dir, opts.ledgerOptions())
	if err != nil {
		return nil, fmt.Errorf("%s peer ledger: %w", kind, err)
	}
	if err := recoverState(kvs, led, dir, pc, opts); err != nil {
		led.Close() // bmaclint:allow errdiscard (error path: ledger close error would mask the recovery failure)
		return nil, err
	}
	return led, nil
}

// recoverState rebuilds a peer's state database from dir: the newest
// usable checkpoint generation seeds kvs with the state as of its recorded
// height, and the ledger blocks past that height are replayed by applying
// the write sets their recorded validation flags admitted. Afterwards the
// ledger height is the next block number the peer expects. kvs must be
// empty. The optional parse-once cache lets a replay in a process whose
// live paths share the cache both reuse their work and pre-warm it for the
// blocks still to come; the durable options steer candidate selection.
//
// A checkpoint that fails to load falls back to an older generation. When
// every candidate is unusable *because it is ahead of the ledger*, that is
// an error rather than a silent full replay: the ledger alone cannot
// reproduce state that predates block 0 (bootstrap genesis data lives only
// in checkpoints).
func recoverState(kvs statedb.KVS, led *ledger.Ledger, dir string, pc *validator.ParseCache, opts DurableOptions) error {
	refs, notes := statedb.Checkpoints(dir, CheckpointFile)
	for _, n := range notes {
		log.Printf("peer: %s: %s", dir, n)
	}
	if opts.NoFastSync {
		// Full-replay measurement baseline: walk oldest-first.
		for i, j := 0, len(refs)-1; i < j; i, j = i+1, j-1 {
			refs[i], refs[j] = refs[j], refs[i]
		}
	}

	start := uint64(0)
	restored := false
	var aheadErr error
	for _, ref := range refs {
		snap, h, err := statedb.LoadCheckpoint(filepath.Join(dir, ref.File))
		switch {
		case err == nil:
		case errors.Is(err, os.ErrNotExist):
			continue
		default:
			log.Printf("peer: %s: checkpoint %s unusable (%v); falling back", dir, ref.File, err)
			continue
		}
		if h > led.Height() {
			// The checkpoint outran the (possibly truncated) ledger; an
			// older generation can still anchor replay.
			aheadErr = fmt.Errorf("peer: checkpoint at height %d is ahead of ledger height %d in %s",
				h, led.Height(), dir)
			log.Printf("%v; falling back", aheadErr)
			continue
		}
		if h < led.Base() {
			// Replay from h would need pruned blocks.
			log.Printf("peer: %s: checkpoint %s at height %d is below the prune floor %d; falling back",
				dir, ref.File, h, led.Base())
			continue
		}
		statedb.RestoreSnapshot(kvs, snap)
		start = h
		restored = true
		break
	}
	if !restored && aheadErr != nil {
		return aheadErr
	}

	// A quarantined range at or above the chosen checkpoint cannot be
	// crossed by replay — roll the ledger back to the gap's edge; those
	// blocks recommit through delivery. Ranges below the checkpoint stay:
	// they are archive-only and restore via delivery catch-up (Restore).
	for _, r := range led.MissingRanges() {
		if r.First >= start {
			if err := led.TruncateFrom(r.First); err != nil {
				return fmt.Errorf("peer: truncate at quarantined range [%d,%d): %w", r.First, r.First+r.Count, err)
			}
			break
		}
	}

	for n := start; n < led.Height(); n++ {
		b, err := led.Get(n)
		if err != nil {
			return fmt.Errorf("peer: recovery replay block %d: %w", n, err)
		}
		if err := replayBlock(kvs, b, pc); err != nil {
			return err
		}
	}
	return nil
}

// replayBlock re-derives the state effects of one committed block: the
// write sets of transactions whose recorded validation flag is Valid,
// decoded through the validator's own transaction parser (the same code
// path the live commit used), applied at the same versions.
func replayBlock(kvs statedb.KVS, b *block.Block, pc *validator.ParseCache) error {
	flags := b.Metadata.ValidationFlags
	for i := range b.Envelopes {
		if i >= len(flags) || block.ValidationCode(flags[i]) != block.Valid {
			continue
		}
		pt, _ := pc.ParseTx(b.Envelopes[i].PayloadBytes)
		if pt.Err != nil {
			return fmt.Errorf("peer: replay block %d tx %d: %w", b.Header.Number, i, pt.Err)
		}
		kvs.WriteBatch(pt.RW.Writes, block.Version{BlockNum: b.Header.Number, TxNum: uint64(i)})
	}
	return nil
}

// Height reports the peer's ledger height — the next block number it
// expects to commit (equal to the recovered height right after a restart).
func (c *swCore) Height() uint64 { return c.Ledger.Height() }

// Checkpoint writes a state checkpoint generation at the current ledger
// height (atomic rename; previous generations survive a crash mid-write)
// and applies the prune policy: with pruning on, it prunes the ledger
// segments covered by *every* retained generation — pruning to the newest
// would strand the older generations' replay ranges. Call it after
// bootstrap to capture genesis state that no ledger block carries.
func (c *swCore) Checkpoint() error {
	refs, err := statedb.WriteManagedCheckpoint(c.dir, c.Store(), c.Ledger.Height(), c.opts.KeepCheckpoints, c.opts.CheckpointFault)
	if err != nil {
		return err
	}
	if !c.opts.Prune || len(refs) == 0 {
		return nil
	}
	covered := refs[len(refs)-1].Height // oldest retained generation
	if _, err := c.Ledger.Prune(covered); err != nil {
		return fmt.Errorf("peer: prune to %d after checkpoint: %w", covered, err)
	}
	return nil
}
