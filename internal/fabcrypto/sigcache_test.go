package fabcrypto

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

type sigFixture struct {
	pub    *Key
	digest []byte
	sig    []byte
}

func makeSigs(t testing.TB, n int) []sigFixture {
	t.Helper()
	signer, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey(signer.Public())
	out := make([]sigFixture, n)
	for i := range out {
		digest := HashSlice([]byte(fmt.Sprintf("msg-%d", i)))
		sig, err := signer.SignDigest(digest)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sigFixture{pub: key, digest: digest, sig: sig}
	}
	return out
}

func TestSigCacheHitMissAndVerdicts(t *testing.T) {
	c := NewSigCache(128)
	sigs := makeSigs(t, 3)

	for _, s := range sigs {
		if err, hit := c.VerifyDigest(s.pub, s.digest, s.sig); err != nil || hit {
			t.Fatalf("first verify: err=%v hit=%v", err, hit)
		}
	}
	for _, s := range sigs {
		if err, hit := c.VerifyDigest(s.pub, s.digest, s.sig); err != nil || !hit {
			t.Fatalf("second verify: err=%v hit=%v", err, hit)
		}
	}
	hits, misses, _ := c.Stats()
	if hits != 3 || misses != 3 {
		t.Fatalf("stats: hits=%d misses=%d, want 3/3", hits, misses)
	}

	// A failed verdict is cached too, and stays identical on the hit path.
	bad := append([]byte(nil), sigs[0].sig...)
	bad[len(bad)-1] ^= 0xff
	err1, hit := c.VerifyDigest(sigs[0].pub, sigs[0].digest, bad)
	if err1 == nil || hit {
		t.Fatalf("corrupt sig: err=%v hit=%v", err1, hit)
	}
	err2, hit := c.VerifyDigest(sigs[0].pub, sigs[0].digest, bad)
	if !hit || !errors.Is(err2, err1) && err2.Error() != err1.Error() {
		t.Fatalf("cached failure differs: %v vs %v (hit=%v)", err2, err1, hit)
	}

	// A different digest under the same key must not hit.
	other := HashSlice([]byte("other"))
	if err, hit := c.VerifyDigest(sigs[0].pub, other, sigs[0].sig); err == nil || hit {
		t.Fatalf("cross-digest lookup: err=%v hit=%v", err, hit)
	}
}

func TestSigCacheNilDisabled(t *testing.T) {
	var c *SigCache
	sigs := makeSigs(t, 1)
	for i := 0; i < 2; i++ {
		if err, hit := c.VerifyDigest(sigs[0].pub, sigs[0].digest, sigs[0].sig); err != nil || hit {
			t.Fatalf("nil cache round %d: err=%v hit=%v", i, err, hit)
		}
	}
	if h, m, e := c.Stats(); h != 0 || m != 0 || e != 0 {
		t.Fatalf("nil cache stats: %d/%d/%d", h, m, e)
	}
	if NewSigCache(0) != nil {
		t.Fatal("NewSigCache(0) should be nil (disabled)")
	}
}

// TestSigCacheEvictionCorrectness fills a tiny cache far past capacity and
// checks verdicts stay correct after eviction (an evicted signature is
// simply re-verified) and the cache never exceeds its bound.
func TestSigCacheEvictionCorrectness(t *testing.T) {
	c := NewSigCache(sigCacheShards) // one verdict per shard
	sigs := makeSigs(t, 80)
	for round := 0; round < 2; round++ {
		for _, s := range sigs {
			if err, _ := c.VerifyDigest(s.pub, s.digest, s.sig); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if got := c.Len(); got > sigCacheShards {
		t.Fatalf("cache holds %d verdicts, capacity %d", got, sigCacheShards)
	}
	if _, _, ev := c.Stats(); ev == 0 {
		t.Fatal("expected evictions")
	}
}

// TestSigCacheConcurrent hammers one small cache from many goroutines with
// overlapping valid and corrupt signatures; run under -race. Every verdict
// must be correct regardless of hits, misses and evictions interleaving.
func TestSigCacheConcurrent(t *testing.T) {
	c := NewSigCache(64)
	sigs := makeSigs(t, 24)
	corrupt := make([][]byte, len(sigs))
	for i, s := range sigs {
		corrupt[i] = append([]byte(nil), s.sig...)
		corrupt[i][len(corrupt[i])-1] ^= 0x01
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 30; it++ {
				s := sigs[(g+it)%len(sigs)]
				if err, _ := c.VerifyDigest(s.pub, s.digest, s.sig); err != nil {
					t.Errorf("valid sig rejected: %v", err)
					return
				}
				if err, _ := c.VerifyDigest(s.pub, s.digest, corrupt[(g+it)%len(sigs)]); err == nil {
					t.Error("corrupt sig accepted")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestVerifyBatch(t *testing.T) {
	sigs := makeSigs(t, 10)
	for _, workers := range []int{0, 1, 4, 32} {
		for _, cache := range []*SigCache{nil, NewSigCache(256)} {
			reqs := make([]VerifyRequest, len(sigs))
			for i, s := range sigs {
				reqs[i] = VerifyRequest{Pub: s.pub, Digest: s.digest, Sig: s.sig}
			}
			reqs[3].Sig = append(append([]byte(nil), reqs[3].Sig...), 0xde) // trailing garbage -> bad DER
			res := cache.VerifyBatch(reqs, workers)
			for i, r := range res {
				if i == 3 {
					if r.Err == nil {
						t.Fatalf("workers=%d: corrupt req %d passed", workers, i)
					}
					continue
				}
				if r.Err != nil {
					t.Fatalf("workers=%d req %d: %v", workers, i, r.Err)
				}
			}
			if cache != nil {
				// Second pass through the same cache must be all hits.
				res = cache.VerifyBatch(reqs, workers)
				for i, r := range res {
					if !r.CacheHit {
						t.Fatalf("workers=%d req %d: expected cache hit", workers, i)
					}
				}
			}
		}
	}
}

func BenchmarkVerifyDigestCold(b *testing.B) {
	sigs := makeSigs(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyDigest(sigs[0].pub.Public(), sigs[0].digest, sigs[0].sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSigCacheHit(b *testing.B) {
	sigs := makeSigs(b, 1)
	c := NewSigCache(64)
	c.VerifyDigest(sigs[0].pub, sigs[0].digest, sigs[0].sig)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err, hit := c.VerifyDigest(sigs[0].pub, sigs[0].digest, sigs[0].sig); err != nil || !hit {
			b.Fatalf("err=%v hit=%v", err, hit)
		}
	}
}

func BenchmarkCertCacheHit(b *testing.B) {
	signer, err := NewSigner()
	if err != nil {
		b.Fatal(err)
	}
	der, err := IssueCertificate(CertTemplate{CommonName: "peer0.bench", Organization: "Org1", SerialNumber: 1},
		signer.Public(), nil, signer.Private())
	if err != nil {
		b.Fatal(err)
	}
	c := NewCertCache(64)
	if _, err := c.KeyFromCert(der); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.KeyFromCert(der); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyBatch(b *testing.B) {
	sigs := makeSigs(b, 4)
	reqs := make([]VerifyRequest, len(sigs))
	for i, s := range sigs {
		reqs[i] = VerifyRequest{Pub: s.pub, Digest: s.digest, Sig: s.sig}
	}
	var c *SigCache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range c.VerifyBatch(reqs, 4) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}
