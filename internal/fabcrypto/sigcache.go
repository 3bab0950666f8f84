package fabcrypto

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"time"
)

// SigCache is a sharded, bounded LRU cache of ECDSA verification verdicts,
// the analog of Fabric MSP's signature cache. A verdict is keyed by
// SHA-256(uncompressed public key ‖ digest ‖ DER signature), so a given
// signature is verified at most once per process no matter how many peers,
// commit paths or replays see it — the dominant CPU cost the paper measures
// (Figure 3a) collapses to one hash plus a map lookup on every repeat.
//
// Both successful and failed verdicts are cached: a verdict is a pure
// function of (key, digest, signature), so replaying a corrupt envelope
// through a second validation path must — and does — yield the identical
// error without re-running the curve math.
//
// A nil *SigCache is valid and means "disabled": every call verifies
// directly. All methods are safe for concurrent use.
type SigCache struct {
	shards []sigShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type sigShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[[HashSize]byte]*list.Element // guarded by mu
	order    *list.List                       // guarded by mu; front = most recently used
}

type sigEntry struct {
	key [HashSize]byte
	err error // nil for a valid signature
}

// sigCacheShards is the fixed stripe count; selection uses the first key
// byte, which is uniformly distributed (SHA-256 output).
const sigCacheShards = 32

// NewSigCache creates a cache bounded to roughly `size` verdicts in total.
// size < 1 returns nil (the disabled cache).
func NewSigCache(size int) *SigCache {
	if size < 1 {
		return nil
	}
	perShard := size / sigCacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &SigCache{shards: make([]sigShard, sigCacheShards)}
	for i := range c.shards {
		c.shards[i] = sigShard{
			capacity: perShard,
			entries:  make(map[[HashSize]byte]*list.Element, perShard),
			order:    list.New(),
		}
	}
	return c
}

// sigCacheKey hashes (public key, digest, signature) into the cache key.
func sigCacheKey(pub *Key, digest, sig []byte) [HashSize]byte {
	h := sha256.New()
	h.Write(pub.point[:])
	h.Write(digest)
	h.Write(sig)
	var key [HashSize]byte
	h.Sum(key[:0])
	return key
}

// VerifyDigest checks a DER signature over a precomputed digest, consulting
// the cache first. hit reports whether the verdict came from the cache (so
// callers can attribute timing honestly: a hit is a hash + lookup, not an
// ECDSA verification). A nil receiver always verifies directly, and so
// does a key with no P-256 encoding to key the cache by.
//
// bmaclint:noalloc
func (c *SigCache) VerifyDigest(pub *Key, digest, sig []byte) (err error, hit bool) {
	if c == nil || !pub.pointOK {
		return pub.VerifyDigest(digest, sig), false
	}
	key := sigCacheKey(pub, digest, sig)
	sh := &c.shards[key[0]%sigCacheShards]

	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		sh.order.MoveToFront(el)
		err := el.Value.(*sigEntry).err
		sh.mu.Unlock()
		c.hits.Add(1)
		return err, true
	}
	sh.mu.Unlock()
	c.misses.Add(1)

	// Verify outside the shard lock: concurrent misses on the same shard
	// (even on the same key) may both pay the curve math, but the verdict
	// is deterministic, so the double insert is harmless.
	verr := pub.VerifyDigest(digest, sig)

	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		sh.order.MoveToFront(el)
	} else {
		sh.entries[key] = sh.order.PushFront(&sigEntry{key: key, err: verr}) // bmaclint:allow allocbound (miss path: one cache insert per new signature)
		if sh.order.Len() > sh.capacity {
			oldest := sh.order.Back()
			sh.order.Remove(oldest)
			delete(sh.entries, oldest.Value.(*sigEntry).key)
			c.evictions.Add(1)
		}
	}
	sh.mu.Unlock()
	return verr, false
}

// Stats reports cumulative hits, misses and evictions.
func (c *SigCache) Stats() (hits, misses, evictions int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// HitRate reports hits / (hits + misses), 0 when empty or nil.
func (c *SigCache) HitRate() float64 {
	if c == nil {
		return 0
	}
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Len reports the number of cached verdicts.
func (c *SigCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}

// VerifyRequest is one (public key, digest, signature) check for VerifyBatch:
// the same tuple an ecdsa_engine instance consumes in hardware.
type VerifyRequest struct {
	Pub    *Key
	Digest []byte
	Sig    []byte
}

// VerifyResult is the outcome of one batched check. Elapsed is the time that
// one verification took on its worker (cache hits are cheap, real verifies
// are not), so callers can keep per-operation accounting honest even though
// the batch overlaps them in wall-clock time.
type VerifyResult struct {
	Err      error
	CacheHit bool
	Elapsed  time.Duration
}

// VerifyBatch fans a slice of checks across up to `workers` goroutines,
// each routed through the cache (which may be nil). Results are positionally
// aligned with reqs. workers <= 1 runs sequentially on the caller.
func (c *SigCache) VerifyBatch(reqs []VerifyRequest, workers int) []VerifyResult {
	out := make([]VerifyResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	one := func(i int) {
		t := time.Now()
		err, hit := c.VerifyDigest(reqs[i].Pub, reqs[i].Digest, reqs[i].Sig)
		out[i] = VerifyResult{Err: err, CacheHit: hit, Elapsed: time.Since(t)}
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers <= 1 {
		for i := range reqs {
			one(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				one(i)
			}
		}()
	}
	wg.Wait()
	return out
}
