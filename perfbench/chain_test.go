package main

import (
	"errors"
	"path/filepath"
	"testing"

	"bmac/internal/block"
	"bmac/internal/config"
)

// smallHot is a short contended chain: cheap to build, with enough
// intra-block conflicts that different seeds give different flags.
var smallHot = chainSpec{Accounts: 50, Skew: 1.3, Blocks: 4, BlockTxs: 20, CheckpointEvery: 2, SegmentBytes: 64 << 10}

func mustChain(t *testing.T, spec chainSpec, seed int64) *chain {
	t.Helper()
	c, err := buildChain(spec, seed, filepath.Join(t.TempDir(), "ref"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSameSeedGivesIdenticalFlags(t *testing.T) {
	a, b := mustChain(t, smallHot, 7), mustChain(t, smallHot, 7)
	if len(a.flags) != smallHot.Blocks || len(b.flags) != smallHot.Blocks {
		t.Fatalf("built %d and %d blocks, want %d", len(a.flags), len(b.flags), smallHot.Blocks)
	}
	for i := range a.flags {
		if !block.FlagsEqual(a.flags[i], b.flags[i]) {
			t.Errorf("block %d: flags %v and %v from the same seed", i, a.flags[i], b.flags[i])
		}
	}
	if a.valid == a.txs || a.conflicts == 0 {
		t.Errorf("chain has no intra-block conflicts (%d valid of %d)", a.valid, a.txs)
	}
	c := mustChain(t, smallHot, 8)
	same := true
	for i := range a.flags {
		same = same && block.FlagsEqual(a.flags[i], c.flags[i])
	}
	if same {
		t.Error("seeds 7 and 8 gave identical flag vectors")
	}
}

func TestReplayDetectsMismatch(t *testing.T) {
	c := mustChain(t, smallHot, 3)
	dir := t.TempDir()
	for _, path := range paths {
		var ps pathStats
		var err error
		if path == pathBMac {
			err = replayBMac(c, filepath.Join(dir, path), &ps, nil)
		} else {
			err = replaySW(path, c, config.Default(), filepath.Join(dir, path), &ps, nil)
		}
		if err != nil {
			t.Fatalf("%s replay of an intact chain: %v", path, err)
		}
		if ps.blocks != smallHot.Blocks || ps.txs != smallHot.Blocks*smallHot.BlockTxs {
			t.Errorf("%s replayed %d blocks, %d txs", path, ps.blocks, ps.txs)
		}
	}
	var rs recoverStats
	if err := recoverOnce(c, &rs, nil); err != nil {
		t.Fatalf("recover: %v", err)
	}

	// Flip one reference flag: every path must report a mismatch.
	c.flags[1] = append([]byte(nil), c.flags[1]...)
	c.flags[1][0] ^= 1
	for _, path := range paths {
		var err error
		if path == pathBMac {
			err = replayBMac(c, filepath.Join(dir, path), &pathStats{}, nil)
		} else {
			err = replaySW(path, c, config.Default(), filepath.Join(dir, path), &pathStats{}, nil)
		}
		if !errors.Is(err, errMismatch) {
			t.Errorf("%s replay against a wrong flag: %v, want a mismatch", path, err)
		}
	}
	c.stateHash = append([]byte(nil), c.stateHash...)
	c.stateHash[0] ^= 1
	if err := recoverOnce(c, &rs, nil); !errors.Is(err, errMismatch) {
		t.Errorf("recover against a wrong state hash: %v, want a mismatch", err)
	}
}
