// Package fiat is the P-256 base-field arithmetic (integers modulo
// p = 2^256 - 2^224 + 2^192 + 2^96 - 1) that fabcrypto's precomputed-table
// verifier is built on.
//
// p256.go, p256_fiat64.go and p256_invert.go are copied unmodified from the
// Go toolchain's crypto/internal/fips140/nistec/fiat (fiat-crypto v0.0.9
// and addchain output, BSD-licensed; see LICENSE), except that p256.go
// imports crypto/subtle in place of the toolchain-internal
// crypto/internal/fips140/subtle. This file adds the variable-time
// comparisons the verifier needs; everything it handles is public.
package fiat

// IsZeroVartime reports whether e == 0. The Montgomery form of 0 is 0 and
// every operation returns fully reduced limbs, so a limb comparison is
// exact without leaving the Montgomery domain.
func (e *P256Element) IsZeroVartime() bool {
	return e.x == p256MontgomeryDomainFieldElement{}
}

// EqualVartime reports whether e == t, by the same canonical-limb argument
// as IsZeroVartime.
func (e *P256Element) EqualVartime(t *P256Element) bool {
	return e.x == t.x
}
