package fabcrypto

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"encoding/binary"
	"math/big"
	"sync"

	"bmac/internal/fabcrypto/internal/fiat"
)

// Variable-time P-256 ECDSA verification from precomputed per-key tables.
//
// The stdlib verifier computes [u₂]Q with a constant-time ladder over a
// table it rebuilds on every call, because the same code serves signing
// with secret scalars. Verification has no secrets — the key, digest and
// signature are all public — so a verifier that sees the same few keys
// millions of times can precompute every multiple it will ever add and run
// in variable time. Each table is a signed-digit comb: row i holds
// j·2^(6i)·P for j = 1..32 in affine form, so a 256-bit scalar costs one
// mixed addition per nonzero 6-bit digit and no doublings at all.

const (
	combBits = 6
	// combDigits is the number of entries per row; recoded digits lie in
	// [-combDigits, combDigits] and a negative one uses the negated point.
	combDigits = 1 << (combBits - 1)
	// combWindows rows cover 258 bits: a 256-bit scalar plus the carry the
	// signed recoding can push past its top digit.
	combWindows = (256 + combBits) / combBits
)

// affinePoint is a P-256 point (x, y) with Montgomery-form coordinates; it
// is never the point at infinity.
type affinePoint struct{ x, y fiat.P256Element }

// jacobianPoint represents (x/z², y/z³), or the point at infinity when inf.
type jacobianPoint struct {
	x, y, z fiat.P256Element
	inf     bool
}

// p256Table holds j·2^(6i)·P at [i][j-1]: 43 × 32 affine points, 86 KiB.
type p256Table [combWindows][combDigits]affinePoint

var (
	p256Params  = elliptic.P256().Params()
	p256B       = mustElement(p256Params.B)
	p256PMinusN = new(big.Int).Sub(p256Params.P, p256Params.N)

	gTableOnce sync.Once
	gTable     *p256Table
)

func mustElement(v *big.Int) fiat.P256Element {
	e, ok := elementFromBig(v)
	if !ok {
		panic("fabcrypto: P-256 constant out of range")
	}
	return e
}

// elementFromBig converts v to a field element, reporting false unless
// 0 <= v < p.
func elementFromBig(v *big.Int) (fiat.P256Element, bool) {
	var e fiat.P256Element
	if v == nil || v.Sign() < 0 || v.BitLen() > 256 {
		return e, false
	}
	var buf [32]byte
	v.FillBytes(buf[:])
	if _, err := e.SetBytes(buf[:]); err != nil {
		return e, false
	}
	return e, true
}

// generatorTable returns the process-wide table for the base point G.
func generatorTable() *p256Table {
	gTableOnce.Do(func() {
		g := affinePoint{x: mustElement(p256Params.Gx), y: mustElement(p256Params.Gy)}
		if gTable = buildTable(g); gTable == nil {
			panic("fabcrypto: generator table build failed")
		}
	})
	return gTable
}

// newKeyTable builds the comb table for an ECDSA public key. It returns nil
// for any key that is not an affine point on P-256 (off the curve, out of
// range, another curve, or the (0, 0) encoding of infinity).
func newKeyTable(pub *ecdsa.PublicKey) *p256Table {
	if pub == nil || pub.Curve == nil || pub.Curve.Params() != p256Params {
		return nil
	}
	var p affinePoint
	var okX, okY bool
	p.x, okX = elementFromBig(pub.X)
	p.y, okY = elementFromBig(pub.Y)
	if !okX || !okY || !p.onCurve() {
		return nil
	}
	return buildTable(p)
}

// onCurve reports whether y² = x³ - 3x + b.
func (p *affinePoint) onCurve() bool {
	var lhs, rhs, t fiat.P256Element
	lhs.Square(&p.y)
	rhs.Square(&p.x)
	rhs.Mul(&rhs, &p.x)
	t.Add(&p.x, &p.x)
	t.Add(&t, &p.x)
	rhs.Sub(&rhs, &t)
	rhs.Add(&rhs, &p256B)
	return lhs.EqualVartime(&rhs)
}

// buildTable fills every row in place: row i's 32 multiples of its base
// B = 2^(6i)·P plus the next base 64·B, all normalized with one inversion.
// The only temporaries are one row's worth of points. It returns nil if p
// is not a point of prime order.
func buildTable(p affinePoint) *p256Table {
	t := new(p256Table)
	var (
		jac   [combDigits + 1]jacobianPoint
		aff   [combDigits + 1]affinePoint
		prods [combDigits + 1]fiat.P256Element
	)
	base := p
	for i := range t {
		jac[0].setAffine(&base)
		for j := 1; j < combDigits; j++ {
			jac[j].addMixed(&jac[j-1], &base)
		}
		jac[combDigits].double(&jac[combDigits-1])
		if !normalize(aff[:], jac[:], prods[:]) {
			// A multiple of a prime-order point below the order is never
			// infinity; reaching here means the input was not such a point.
			return nil
		}
		copy(t[i][:], aff[:combDigits])
		base = aff[combDigits]
	}
	return t
}

// normalize converts in to affine form in out with Montgomery's batch
// inversion trick (prods is scratch of the same length). It reports false
// if any input is the point at infinity.
func normalize(out []affinePoint, in []jacobianPoint, prods []fiat.P256Element) bool {
	for k := range in {
		if in[k].inf {
			return false
		}
		if k == 0 {
			prods[0].Set(&in[0].z)
		} else {
			prods[k].Mul(&prods[k-1], &in[k].z)
		}
	}
	var inv, zinv, zinv2 fiat.P256Element
	inv.Invert(&prods[len(in)-1])
	for k := len(in) - 1; k >= 0; k-- {
		if k > 0 {
			zinv.Mul(&inv, &prods[k-1])
			inv.Mul(&inv, &in[k].z)
		} else {
			zinv.Set(&inv)
		}
		zinv2.Square(&zinv)
		out[k].x.Mul(&in[k].x, &zinv2)
		zinv2.Mul(&zinv2, &zinv)
		out[k].y.Mul(&in[k].y, &zinv2)
	}
	return true
}

func (r *jacobianPoint) setAffine(p *affinePoint) {
	r.x.Set(&p.x)
	r.y.Set(&p.y)
	r.z.One()
	r.inf = false
}

// addMixed sets r = p + q (r may alias p). Cost 8M + 3S; the equal and
// opposite cases, which a hostile signature can steer into, branch to a
// doubling or to infinity.
func (r *jacobianPoint) addMixed(p *jacobianPoint, q *affinePoint) {
	if p.inf {
		r.setAffine(q)
		return
	}
	var z1z1, u2, s2, h, rr fiat.P256Element
	z1z1.Square(&p.z)
	u2.Mul(&q.x, &z1z1)
	s2.Mul(&q.y, &p.z)
	s2.Mul(&s2, &z1z1)
	h.Sub(&u2, &p.x)
	rr.Sub(&s2, &p.y)
	if h.IsZeroVartime() {
		if rr.IsZeroVartime() {
			r.double(p)
		} else {
			r.inf = true
		}
		return
	}
	var hh, hhh, v, x3, y3, t fiat.P256Element
	hh.Square(&h)
	hhh.Mul(&h, &hh)
	v.Mul(&p.x, &hh)
	x3.Square(&rr)
	x3.Sub(&x3, &hhh)
	x3.Sub(&x3, &v)
	x3.Sub(&x3, &v)
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &rr)
	t.Mul(&p.y, &hhh)
	y3.Sub(&y3, &t)
	r.z.Mul(&p.z, &h)
	r.x.Set(&x3)
	r.y.Set(&y3)
	r.inf = false
}

// double sets r = 2p (r may alias p), with the a = -3 formulas.
func (r *jacobianPoint) double(p *jacobianPoint) {
	if p.inf || p.y.IsZeroVartime() {
		r.inf = true
		return
	}
	var delta, gamma, beta, alpha, t, x3, y3 fiat.P256Element
	delta.Square(&p.z)
	gamma.Square(&p.y)
	beta.Mul(&p.x, &gamma)
	alpha.Sub(&p.x, &delta)
	t.Add(&p.x, &delta)
	alpha.Mul(&alpha, &t)
	t.Add(&alpha, &alpha)
	alpha.Add(&alpha, &t) // 3(x - δ)(x + δ)
	t.Add(&beta, &beta)
	t.Add(&t, &t) // 4β
	x3.Square(&alpha)
	x3.Sub(&x3, &t)
	x3.Sub(&x3, &t) // α² - 8β
	y3.Sub(&t, &x3)
	y3.Mul(&y3, &alpha)
	t.Square(&gamma)
	t.Add(&t, &t)
	t.Add(&t, &t)
	t.Add(&t, &t) // 8γ²
	y3.Sub(&y3, &t)
	r.z.Add(&p.y, &p.z)
	r.z.Square(&r.z)
	r.z.Sub(&r.z, &gamma)
	r.z.Sub(&r.z, &delta)
	r.x.Set(&x3)
	r.y.Set(&y3)
	r.inf = false
}

// addMul sets acc = acc + k·P for the table's base P and a big-endian
// 256-bit scalar k, one mixed addition per nonzero signed 6-bit digit.
func (t *p256Table) addMul(acc *jacobianPoint, k *[32]byte) {
	var limbs [4]uint64 // little-endian
	for i := range limbs {
		limbs[i] = binary.BigEndian.Uint64(k[32-8*(i+1):])
	}
	var neg affinePoint
	var zero fiat.P256Element
	carry := 0
	for w := range t {
		bit := w * combBits
		word := limbs[bit/64] >> (bit % 64)
		if bit%64 > 64-combBits && bit/64+1 < len(limbs) {
			word |= limbs[bit/64+1] << (64 - bit%64)
		}
		d := int(word&(1<<combBits-1)) + carry
		carry = 0
		if d > combDigits {
			d -= 1 << combBits
			carry = 1
		}
		switch {
		case d > 0:
			acc.addMixed(acc, &t[w][d-1])
		case d < 0:
			pt := &t[w][-d-1]
			neg.x.Set(&pt.x)
			neg.y.Sub(&zero, &pt.y)
			acc.addMixed(acc, &neg)
		}
	}
}

// verify reports whether (r, s) is a valid signature of the 32-byte digest
// under the table's key, with exactly the verdict of ecdsa.Verify.
func (t *p256Table) verify(digest []byte, r, s *big.Int) bool {
	n := p256Params.N
	if r.Sign() <= 0 || s.Sign() <= 0 || r.Cmp(n) >= 0 || s.Cmp(n) >= 0 {
		return false
	}
	w := new(big.Int).ModInverse(s, n)
	u1 := new(big.Int).SetBytes(digest)
	u1.Mul(u1, w).Mod(u1, n)
	u2 := w.Mul(w, r).Mod(w, n)
	var k1, k2 [32]byte
	u1.FillBytes(k1[:])
	u2.FillBytes(k2[:])

	var acc jacobianPoint
	acc.inf = true
	generatorTable().addMul(&acc, &k1)
	t.addMul(&acc, &k2)
	if acc.inf {
		return false
	}
	// x(R) mod n == r without an inversion: x(R) is either r or, when
	// r + n < p, possibly r + n; compare each against X/Z² as X = c·Z².
	var z2 fiat.P256Element
	z2.Square(&acc.z)
	if jacobianXEquals(&acc, &z2, r) {
		return true
	}
	if r.Cmp(p256PMinusN) >= 0 {
		return false
	}
	return jacobianXEquals(&acc, &z2, new(big.Int).Add(r, n))
}

// jacobianXEquals reports whether acc.x == c·z2 for a c already known to
// be below p.
func jacobianXEquals(acc *jacobianPoint, z2 *fiat.P256Element, c *big.Int) bool {
	e, ok := elementFromBig(c)
	if !ok {
		return false
	}
	e.Mul(&e, z2)
	return e.EqualVartime(&acc.x)
}
