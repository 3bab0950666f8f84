package fabcrypto

import (
	"crypto/ecdsa"
	"math/big"
	"sync/atomic"
)

// keyTableThreshold is the verification count after which a Key builds its
// comb table: the break-even point of one table build (~1.5 ms) against the
// per-verification saving over the stdlib (~60 µs).
const keyTableThreshold = 25

// Key is an ECDSA public key as the validation paths hold it: the analogue
// of the public-key entry BMac's identity cache hands an ecdsa_engine. It
// counts the verifications made through it and, once they pass
// keyTableThreshold, builds a precomputed P-256 table (see p256table.go)
// that roughly halves the cost of every later verification. A Key belongs
// to the cache entry that interns its certificate (CertCache, the identity
// cache), so its table lives and dies with that entry.
//
// The stdlib verifier still serves keys below the threshold and digests
// that are not 32 bytes; both paths return the same verdict on every input.
// All methods are safe for concurrent use.
type Key struct {
	pub *ecdsa.PublicKey
	// point is the uncompressed encoding that prefixes SigCache keys;
	// pointOK is false for a key that has none (not a P-256 point in
	// range), which bypasses the signature cache.
	point   [1 + 2*ScalarSize]byte
	pointOK bool

	verifies atomic.Int64
	table    atomic.Pointer[p256Table]
	builds   atomic.Int32 // table builds attempted; at most one
}

// NewKey wraps pub.
func NewKey(pub *ecdsa.PublicKey) *Key {
	k := &Key{pub: pub}
	if pub.Curve != nil && pub.Curve.Params() == p256Params &&
		pub.X != nil && pub.Y != nil && pub.X.Sign() >= 0 && pub.Y.Sign() >= 0 &&
		pub.X.BitLen() <= 8*ScalarSize && pub.Y.BitLen() <= 8*ScalarSize {
		k.point[0] = 4
		pub.X.FillBytes(k.point[1 : 1+ScalarSize])
		pub.Y.FillBytes(k.point[1+ScalarSize:])
		k.pointOK = true
	}
	return k
}

// Public returns the wrapped public key.
func (k *Key) Public() *ecdsa.PublicKey { return k.pub }

// VerifyDigest checks a DER signature over a precomputed digest, with the
// same errors as the package-level VerifyDigest.
func (k *Key) VerifyDigest(digest, sig []byte) error {
	r, s, err := UnmarshalDERSignature(sig)
	if err != nil {
		return err
	}
	if !k.verify(digest, r, s) {
		return ErrVerifyFailed
	}
	return nil
}

// VerifyParts verifies a signature given in hardware (r, s) representation.
// This is the exact operation one ecdsa_engine instance performs on a
// {signature, key, data hash} verification request tuple.
func (k *Key) VerifyParts(digest []byte, parts SignatureParts) bool {
	r := new(big.Int).SetBytes(parts.R[:])
	s := new(big.Int).SetBytes(parts.S[:])
	if r.Sign() <= 0 || s.Sign() <= 0 {
		return false
	}
	return k.verify(digest, r, s)
}

func (k *Key) verify(digest []byte, r, s *big.Int) bool {
	if len(digest) == HashSize {
		if t := k.promote(); t != nil {
			return t.verify(digest, r, s)
		}
	}
	return ecdsa.Verify(k.pub, digest, r, s)
}

// promote returns the key's table, counting this verification and building
// the table on the one call that reaches the threshold. Concurrent callers
// before the table is published fall back to the stdlib; a key the table
// build rejects stays on the stdlib for good.
func (k *Key) promote() *p256Table {
	if t := k.table.Load(); t != nil {
		return t
	}
	if k.verifies.Add(1) != keyTableThreshold {
		return nil
	}
	return k.build()
}

// Precompute builds the key's table now rather than at its
// keyTableThreshold-th verification, unless a build already happened, and
// reports whether the key verifies through a table. Claiming the threshold
// count keeps the build single even against concurrent verifications.
func (k *Key) Precompute() bool {
	if k.verifies.Swap(keyTableThreshold) < keyTableThreshold {
		k.build()
	}
	return k.table.Load() != nil
}

func (k *Key) build() *p256Table {
	k.builds.Add(1)
	t := newKeyTable(k.pub)
	if t != nil {
		k.table.Store(t)
	}
	return t
}
