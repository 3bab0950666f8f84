package fabcrypto

import (
	"bytes"
	"container/list"
	"crypto/ecdsa"
	"crypto/x509"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// CertCache is a sharded, bounded LRU cache of parsed X.509 identity
// certificates. Profiling the software validator shows x509.ParseCertificate
// rivals the ECDSA math itself in allocations, and the same handful of
// identity certificates (creator, endorsers, orderer) recurs in every
// transaction of every block — the same observation that makes Fabric's MSP
// cache deserialized identities. A hit costs one fast hash + lookup and
// returns the interned *x509.Certificate and its ECDSA Key, which owns that
// identity's precomputed verification table once it is hot.
//
// Lookups are keyed by a seeded 64-bit maphash of the DER bytes and
// VERIFIED by byte comparison against the stored DER before a hit is
// served, so a hash collision degrades to a miss, never to a wrong
// certificate. The stored DER is copied on insert, so cached entries never
// pin a block buffer.
//
// A nil *CertCache is valid and means "disabled": every call parses.
type CertCache struct {
	shards []certShard

	hits   atomic.Int64
	misses atomic.Int64
}

type certShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[uint64]*list.Element // guarded by mu
	order    *list.List               // guarded by mu; front = most recently used
}

type certEntry struct {
	key  uint64
	der  []byte // private copy of the certificate DER
	cert *x509.Certificate
	pub  *Key // nil unless the certificate carries an ECDSA key
	err  error
}

const certCacheShards = 16

var certSeed = maphash.MakeSeed()

// NewCertCache creates a cache bounded to roughly `size` certificates.
// size < 1 returns nil (the disabled cache).
func NewCertCache(size int) *CertCache {
	if size < 1 {
		return nil
	}
	perShard := size / certCacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &CertCache{shards: make([]certShard, certCacheShards)}
	for i := range c.shards {
		c.shards[i] = certShard{
			capacity: perShard,
			entries:  make(map[uint64]*list.Element, perShard),
			order:    list.New(),
		}
	}
	return c
}

// lookup interns the parsed form of der, parsing on a miss.
//
// bmaclint:noalloc
func (c *CertCache) lookup(der []byte) *certEntry {
	key := maphash.Bytes(certSeed, der)
	sh := &c.shards[key%certCacheShards]

	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		e := el.Value.(*certEntry)
		if bytes.Equal(e.der, der) {
			sh.order.MoveToFront(el)
			sh.mu.Unlock()
			c.hits.Add(1)
			return e
		}
		// 64-bit collision between different certificates: evict the old
		// entry and fall through to a parse.
		sh.order.Remove(el)
		delete(sh.entries, key)
	}
	sh.mu.Unlock()
	c.misses.Add(1)

	e := &certEntry{key: key, der: append([]byte(nil), der...)} // bmaclint:allow allocbound (miss path: entry owns a private DER copy)
	e.cert, e.err = ParseCertificate(der)
	if e.err == nil {
		if pub, ok := e.cert.PublicKey.(*ecdsa.PublicKey); ok {
			e.pub = NewKey(pub)
		}
	}

	sh.mu.Lock()
	if _, ok := sh.entries[key]; !ok {
		sh.entries[key] = sh.order.PushFront(e) // bmaclint:allow allocbound (miss path: LRU node for the new entry)
		if sh.order.Len() > sh.capacity {
			oldest := sh.order.Back()
			sh.order.Remove(oldest)
			delete(sh.entries, oldest.Value.(*certEntry).key)
		}
	}
	sh.mu.Unlock()
	return e
}

// ParseCertificate returns the interned parse of a DER certificate,
// parsing and caching on first sight. The returned certificate is shared
// and must be treated as read-only. A nil receiver parses directly.
func (c *CertCache) ParseCertificate(der []byte) (*x509.Certificate, error) {
	if c == nil {
		return ParseCertificate(der)
	}
	e := c.lookup(der)
	return e.cert, e.err
}

// KeyFromCert returns the interned Key of a DER certificate, with the
// errors of the package-level PublicKeyFromCert (including the one for
// non-ECDSA keys). A nil receiver parses directly and returns a fresh Key,
// which never lives long enough to earn a table.
func (c *CertCache) KeyFromCert(der []byte) (*Key, error) {
	if c == nil {
		pub, err := PublicKeyFromCert(der)
		if err != nil {
			return nil, err
		}
		return NewKey(pub), nil
	}
	e := c.lookup(der)
	if e.err != nil {
		return nil, e.err
	}
	if e.pub == nil {
		return nil, errNotECDSA(e.cert)
	}
	return e.pub, nil
}

// Stats reports cumulative hits and misses.
func (c *CertCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// HitRate reports hits / (hits + misses), 0 when empty or nil.
func (c *CertCache) HitRate() float64 {
	if c == nil {
		return 0
	}
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
