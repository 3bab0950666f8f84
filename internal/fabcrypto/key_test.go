package fabcrypto

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"math/big"
	"sync"
	"testing"
)

// verdictCase is one (key, digest, r, s) input on which the table verifier
// must agree with crypto/ecdsa. Scalars are big-endian bytes so the cases
// double as fuzz seeds; an empty slice is zero.
type verdictCase struct {
	name       string
	x, y       []byte
	digest     []byte
	r, s       []byte
	wantValid  bool // ecdsa.Verify's verdict, pinned so the case means what it says
	tableKeyOK bool // whether the key may get a table
}

var curve = elliptic.P256()

func bigOf(b []byte) *big.Int { return new(big.Int).SetBytes(b) }

func modN(v *big.Int) *big.Int { return v.Mod(v, curve.Params().N) }

// pubOf returns d·G as a public key.
func pubOf(d *big.Int) *ecdsa.PublicKey {
	x, y := curve.ScalarBaseMult(d.Bytes())
	return &ecdsa.PublicKey{Curve: curve, X: x, Y: y}
}

// signWithNonce signs the scalar e (the digest as ECDSA reduces it) under
// private key d with nonce k, deterministically.
func signWithNonce(d, k, e *big.Int) (r, s *big.Int) {
	n := curve.Params().N
	kx, _ := curve.ScalarBaseMult(k.Bytes())
	r = modN(kx)
	s = new(big.Int).Mul(r, d)
	s.Add(s, e)
	s.Mul(s, new(big.Int).ModInverse(k, n))
	return r, modN(s)
}

// pointWithXAtLeastN finds a curve point R with n <= x(R) < p.
func pointWithXAtLeastN(t testing.TB) (x, y *big.Int) {
	t.Helper()
	c := curve.Params()
	three := big.NewInt(3)
	for off := int64(1); off < 1000; off++ {
		x := new(big.Int).Add(c.N, big.NewInt(off))
		rhs := new(big.Int).Exp(x, three, c.P)
		rhs.Sub(rhs, new(big.Int).Mul(three, x))
		rhs.Add(rhs, c.B)
		rhs.Mod(rhs, c.P)
		if y := new(big.Int).ModSqrt(rhs, c.P); y != nil {
			return x, y
		}
	}
	t.Fatal("no point with x >= n near n")
	return nil, nil
}

func b32(v *big.Int) []byte {
	out := make([]byte, 32)
	return v.FillBytes(out)
}

func verdictCases(t testing.TB) []verdictCase {
	t.Helper()
	c := curve.Params()
	n := c.N
	nMinus1 := new(big.Int).Sub(n, big.NewInt(1))

	d := big.NewInt(0x5eed)
	pub := pubOf(d)
	e := bigOf(HashSlice([]byte("block 7, tx 3")))
	r, s := signWithNonce(d, big.NewInt(0xc0ffee), e)
	var out []verdictCase
	add := func(name string, pub *ecdsa.PublicKey, digest []byte, r, s *big.Int, want, keyOK bool) {
		out = append(out, verdictCase{name, pub.X.Bytes(), pub.Y.Bytes(), digest, r.Bytes(), s.Bytes(), want, keyOK})
	}
	digest := b32(e)
	add("valid", pub, digest, r, s, true, true)
	add("high-S", pub, digest, r, new(big.Int).Sub(n, s), true, true)
	tampered := b32(e)
	tampered[31] ^= 1
	add("tampered digest", pub, tampered, r, s, false, true)
	for _, bad := range []struct {
		name string
		v    *big.Int
	}{
		{"0", new(big.Int)},
		{"n-1", nMinus1},
		{"n", n},
		{"n+1", new(big.Int).Add(n, big.NewInt(1))},
		{"2^256-1", new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))},
	} {
		add("r="+bad.name, pub, digest, bad.v, s, false, true)
		add("s="+bad.name, pub, digest, r, bad.v, false, true)
	}
	// r ≡ s + n: the same signature with r lifted out of range.
	add("r+n", pub, digest, new(big.Int).Add(r, n), s, false, true)

	// x(R) in [n, p): recover the key that makes a chosen R the verifier's
	// point, so x(R) mod n = x(R) - n is the valid r.
	Rx, Ry := pointWithXAtLeastN(t)
	rr := new(big.Int).Sub(Rx, n)
	ss := big.NewInt(0xabcdef)
	sRx, sRy := curve.ScalarMult(Rx, Ry, ss.Bytes())
	eGx, eGy := curve.ScalarBaseMult(e.Bytes())
	eGy.Sub(c.P, eGy)
	qx, qy := curve.Add(sRx, sRy, eGx, eGy)
	qx, qy = curve.ScalarMult(qx, qy, new(big.Int).ModInverse(rr, n).Bytes())
	recovered := &ecdsa.PublicKey{Curve: curve, X: qx, Y: qy}
	add("x(R) in [n,p)", recovered, digest, rr, ss, true, true)
	add("x(R) in [n,p), r = x(R)", recovered, digest, Rx, ss, false, true)

	// R = ∞: e ≡ -r·d (mod n) makes u₁G + u₂Q = w(e + r·d)G vanish.
	rInf := big.NewInt(12345)
	eInf := modN(new(big.Int).Neg(new(big.Int).Mul(rInf, d)))
	add("R = infinity", pub, b32(eInf), rInf, big.NewInt(777), false, true)

	// Q = G with e = r = s: u₁ = u₂ = 1, so the verifier adds G to G
	// (the doubling branch) and R = 2G; valid iff r = x(2G) mod n.
	g := pubOf(big.NewInt(1))
	x2, _ := curve.Double(c.Gx, c.Gy)
	t2 := modN(new(big.Int).Set(x2))
	add("doubling to 2G", g, b32(t2), t2, t2, true, true)
	// Q = -G with e = r = s: G + (-G), the opposite-point branch, R = ∞.
	negG := pubOf(nMinus1)
	add("G + -G", negG, b32(t2), t2, t2, false, true)

	// Digests that are not 32 bytes (the stdlib path on every key).
	short := Hash([]byte("short"))
	eShort := bigOf(short[:20])
	rs, sshort := signWithNonce(d, big.NewInt(99), eShort)
	add("20-byte digest", pub, short[:20], rs, sshort, true, true)
	long := append(HashSlice([]byte("a")), make([]byte, 16)...)
	rl, sl := signWithNonce(d, big.NewInt(101), bigOf(long[:32]))
	add("48-byte digest", pub, long, rl, sl, true, true)
	add("empty digest", pub, nil, r, s, false, true)

	// Keys the table build must reject.
	offCurve := &ecdsa.PublicKey{Curve: curve, X: pub.X, Y: new(big.Int).Add(pub.Y, big.NewInt(1))}
	add("key off the curve", offCurve, digest, r, s, false, false)
	infinity := &ecdsa.PublicKey{Curve: curve, X: new(big.Int), Y: new(big.Int)}
	add("key at infinity", infinity, digest, r, s, false, false)
	return out
}

func (vc verdictCase) key() *ecdsa.PublicKey {
	return &ecdsa.PublicKey{Curve: curve, X: bigOf(vc.x), Y: bigOf(vc.y)}
}

// checkVerdict requires the table path (direct and through a promoted Key)
// to return crypto/ecdsa's verdict.
func checkVerdict(t *testing.T, k *Key, digest []byte, r, s *big.Int) {
	t.Helper()
	want := ecdsa.Verify(k.pub, digest, r, s)
	if tbl := k.table.Load(); tbl != nil && len(digest) == HashSize {
		if got := tbl.verify(digest, r, s); got != want {
			t.Fatalf("table verify = %v, crypto/ecdsa = %v", got, want)
		}
	}
	if got := k.verify(digest, r, s); got != want {
		t.Fatalf("Key verify = %v, crypto/ecdsa = %v", got, want)
	}
}

func TestVerifyMatchesStdlib(t *testing.T) {
	for _, vc := range verdictCases(t) {
		t.Run(vc.name, func(t *testing.T) {
			pub := vc.key()
			r, s := bigOf(vc.r), bigOf(vc.s)
			if got := ecdsa.Verify(pub, vc.digest, r, s); got != vc.wantValid {
				t.Fatalf("crypto/ecdsa verdict %v, case expects %v", got, vc.wantValid)
			}
			if built := newKeyTable(pub) != nil; built != vc.tableKeyOK {
				t.Fatalf("table built = %v, want %v", built, vc.tableKeyOK)
			}
			k := NewKey(pub)
			if k.Precompute() != vc.tableKeyOK {
				t.Fatalf("Precompute = %v, want %v", !vc.tableKeyOK, vc.tableKeyOK)
			}
			checkVerdict(t, k, vc.digest, r, s)
			if vc.tableKeyOK && len(vc.digest) == HashSize && vc.wantValid {
				// The verdict must also survive the DER round trip.
				der, err := MarshalDERSignature(r, s)
				if err != nil {
					t.Fatal(err)
				}
				if err := k.VerifyDigest(vc.digest, der); err != nil {
					t.Fatalf("VerifyDigest: %v", err)
				}
			}
		})
	}
}

func FuzzVerifyMatchesStdlib(f *testing.F) {
	for _, vc := range verdictCases(f) {
		f.Add(vc.x, vc.y, vc.digest, vc.r, vc.s)
	}
	// One table per distinct key rather than per input, in a bounded map.
	type point struct{ x, y string }
	keys := map[point]*Key{}
	f.Fuzz(func(t *testing.T, x, y, digest, r, s []byte) {
		id := point{string(x), string(y)}
		k, ok := keys[id]
		if !ok {
			if len(keys) >= 64 {
				clear(keys)
			}
			k = NewKey(&ecdsa.PublicKey{Curve: curve, X: bigOf(x), Y: bigOf(y)})
			k.Precompute()
			keys[id] = k
		}
		checkVerdict(t, k, digest, bigOf(r), bigOf(s))
	})
}

func TestKeyPromotesAtThreshold(t *testing.T) {
	s := newTestSigner(t)
	k := NewKey(s.Public())
	digest := Hash([]byte("m"))
	sig, err := s.SignDigest(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= keyTableThreshold+5; i++ {
		if err := k.VerifyDigest(digest[:], sig); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
		if built := k.table.Load() != nil; built != (i >= keyTableThreshold) {
			t.Fatalf("after %d verifications table built = %v", i, built)
		}
	}
	if !errors.Is(k.VerifyDigest(digest[:], append(sig[:len(sig):len(sig)], 0)), ErrBadSignature) {
		t.Fatal("trailing garbage not reported as a malformed signature")
	}
}

// TestKeyConcurrentPromotion verifies through one Key from several
// goroutines while it crosses the threshold: every verdict stays right and
// the table is built exactly once.
func TestKeyConcurrentPromotion(t *testing.T) {
	sigs := makeSigs(t, 4)
	k := sigs[0].pub
	bad := make([]byte, len(sigs[0].sig))
	copy(bad, sigs[0].sig)
	bad[len(bad)-1] ^= 1

	const goroutines, each = 8, 3 * keyTableThreshold / 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f := sigs[(g+i)%len(sigs)]
				if err := k.VerifyDigest(f.digest, f.sig); err != nil {
					t.Errorf("goroutine %d: valid signature rejected: %v", g, err)
					return
				}
				if err := k.VerifyDigest(sigs[0].digest, bad); err == nil {
					t.Errorf("goroutine %d: corrupt signature accepted", g)
					return
				}
			}
			if g == 0 {
				k.Precompute() // an explicit build request racing the threshold
			}
		}()
	}
	wg.Wait()
	if k.table.Load() == nil {
		t.Fatal("table never built")
	}
	if n := k.builds.Load(); n != 1 {
		t.Fatalf("table built %d times, want exactly once", n)
	}
}

// TestSigCacheBypassesNonP256Keys: a key with no P-256 encoding cannot key
// the cache, so it verifies directly (with the stdlib's verdict).
func TestSigCacheBypassesNonP256Keys(t *testing.T) {
	priv, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	digest := Hash([]byte("p384"))
	r, s, err := ecdsa.Sign(rand.Reader, priv, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	der, err := MarshalDERSignature(r, s)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey(&priv.PublicKey)
	if k.Precompute() {
		t.Fatal("table built for a P-384 key")
	}
	c := NewSigCache(64)
	for i := 0; i < 2; i++ {
		if err, hit := c.VerifyDigest(k, digest[:], der); err != nil || hit {
			t.Fatalf("P-384 verify: err %v hit %v", err, hit)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("cache holds %d verdicts for an uncacheable key", c.Len())
	}
}
