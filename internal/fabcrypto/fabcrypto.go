// Package fabcrypto provides the cryptographic substrate used throughout the
// Blockchain Machine reproduction: 256-bit ECDSA (Fabric's default scheme)
// with DER-encoded signatures, SHA-256 hashing, and generation of the X.509
// certificates that act as node identities.
//
// The paper's protocol_processor includes a DER decoder post-processor that
// splits a signature into its (r, s) halves as 256-bit values for the ECDSA
// verification hardware, and an X.509 post-processor that extracts the public
// key from an identity certificate; both are implemented here and exercised
// by internal/bmacproto.
package fabcrypto

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"errors"
	"fmt"
	"math/big"
	"time"
)

// HashSize is the size of a SHA-256 digest in bytes.
const HashSize = sha256.Size

// ScalarSize is the size in bytes of a P-256 scalar (one signature half).
const ScalarSize = 32

var (
	// ErrBadSignature reports a malformed DER signature.
	ErrBadSignature = errors.New("fabcrypto: malformed DER signature")
	// ErrVerifyFailed reports a signature that does not verify.
	ErrVerifyFailed = errors.New("fabcrypto: signature verification failed")
)

// Hash returns the SHA-256 digest of data.
func Hash(data []byte) [HashSize]byte {
	return sha256.Sum256(data)
}

// HashSlice returns the SHA-256 digest of data as a byte slice.
func HashSlice(data []byte) []byte {
	h := sha256.Sum256(data)
	return h[:]
}

// StreamHasher is an incremental SHA-256 calculator mirroring the paper's
// stream-based hash calculators in the protocol_processor: three of them run
// in parallel over block data, transaction sections, and endorsement data.
type StreamHasher struct {
	inner [HashSize]byte
	buf   []byte
}

// Write appends data to the stream.
func (s *StreamHasher) Write(p []byte) {
	s.buf = append(s.buf, p...)
}

// Sum finalizes and returns the digest of everything written so far.
func (s *StreamHasher) Sum() []byte {
	s.inner = sha256.Sum256(s.buf)
	return s.inner[:]
}

// Reset clears the stream for reuse.
func (s *StreamHasher) Reset() {
	s.buf = s.buf[:0]
}

// Signer holds an ECDSA P-256 private key and produces DER signatures over
// SHA-256 digests, matching Fabric's default BCCSP configuration.
type Signer struct {
	priv *ecdsa.PrivateKey
}

// NewSigner generates a fresh P-256 key pair.
func NewSigner() (*Signer, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate P-256 key: %w", err)
	}
	return &Signer{priv: priv}, nil
}

// Public returns the signer's public key.
func (s *Signer) Public() *ecdsa.PublicKey { return &s.priv.PublicKey }

// Private returns the underlying private key (needed for certificate
// issuance by internal/identity).
func (s *Signer) Private() *ecdsa.PrivateKey { return s.priv }

// Sign hashes msg with SHA-256 and returns a DER-encoded ECDSA signature.
// Fabric normalizes s to the low half of the curve order ("low-S") to avoid
// signature malleability; we do the same.
func (s *Signer) Sign(msg []byte) ([]byte, error) {
	digest := sha256.Sum256(msg)
	return s.SignDigest(digest[:])
}

// SignDigest signs a precomputed 32-byte digest.
func (s *Signer) SignDigest(digest []byte) ([]byte, error) {
	r, sv, err := ecdsa.Sign(rand.Reader, s.priv, digest)
	if err != nil {
		return nil, fmt.Errorf("ecdsa sign: %w", err)
	}
	sv = toLowS(sv)
	return MarshalDERSignature(r, sv)
}

// Verify checks a DER signature over msg against pub.
func Verify(pub *ecdsa.PublicKey, msg, sig []byte) error {
	digest := sha256.Sum256(msg)
	return VerifyDigest(pub, digest[:], sig)
}

// VerifyDigest checks a DER signature over a precomputed digest.
func VerifyDigest(pub *ecdsa.PublicKey, digest, sig []byte) error {
	r, s, err := UnmarshalDERSignature(sig)
	if err != nil {
		return err
	}
	if !ecdsa.Verify(pub, digest, r, s) {
		return ErrVerifyFailed
	}
	return nil
}

var p256HalfOrder = new(big.Int).Rsh(elliptic.P256().Params().N, 1)

func toLowS(s *big.Int) *big.Int {
	if s.Cmp(p256HalfOrder) > 0 {
		return new(big.Int).Sub(elliptic.P256().Params().N, s)
	}
	return s
}

// ecdsaSignature is the ASN.1 SEQUENCE { r INTEGER, s INTEGER } structure
// defined by X9.62 and used by Fabric on the wire.
type ecdsaSignature struct {
	R, S *big.Int
}

// MarshalDERSignature encodes (r, s) as an ASN.1 DER ECDSA-Sig-Value.
func MarshalDERSignature(r, s *big.Int) ([]byte, error) {
	der, err := asn1.Marshal(ecdsaSignature{R: r, S: s})
	if err != nil {
		return nil, fmt.Errorf("marshal DER signature: %w", err)
	}
	return der, nil
}

// UnmarshalDERSignature decodes a DER ECDSA signature into (r, s).
func UnmarshalDERSignature(sig []byte) (r, s *big.Int, err error) {
	var v ecdsaSignature
	rest, err := asn1.Unmarshal(sig, &v)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSignature, len(rest))
	}
	if v.R == nil || v.S == nil || v.R.Sign() <= 0 || v.S.Sign() <= 0 {
		return nil, nil, fmt.Errorf("%w: non-positive component", ErrBadSignature)
	}
	return v.R, v.S, nil
}

// SignatureParts is the output of the protocol_processor's DER decoder
// post-processor: the two signature halves as fixed-width 256-bit values,
// the representation expected by the ecdsa_engine hardware.
type SignatureParts struct {
	R [ScalarSize]byte
	S [ScalarSize]byte
}

// DecodeDERToParts converts a DER signature to fixed-width (r, s) parts.
func DecodeDERToParts(sig []byte) (SignatureParts, error) {
	var parts SignatureParts
	r, s, err := UnmarshalDERSignature(sig)
	if err != nil {
		return parts, err
	}
	r.FillBytes(parts.R[:])
	s.FillBytes(parts.S[:])
	return parts, nil
}

// PartsToDER re-encodes fixed-width (r, s) parts as DER; used by tests to
// prove the hardware-side representation is lossless.
func PartsToDER(parts SignatureParts) ([]byte, error) {
	r := new(big.Int).SetBytes(parts.R[:])
	s := new(big.Int).SetBytes(parts.S[:])
	return MarshalDERSignature(r, s)
}

// CertTemplate describes an identity certificate to issue.
type CertTemplate struct {
	CommonName   string
	Organization string
	IsCA         bool
	SerialNumber int64
	NotBefore    time.Time
	Lifetime     time.Duration
}

// IssueCertificate creates a DER-encoded X.509 certificate for subjectPub,
// signed by issuerKey (self-signed when issuer == nil). Fabric identities
// are X.509 certificates of roughly 860 bytes; the subject fields here are
// sized to land in that range so the protocol bandwidth experiments
// (Figure 9a) see realistic identity weight.
func IssueCertificate(tmpl CertTemplate, subjectPub *ecdsa.PublicKey,
	issuer *x509.Certificate, issuerKey *ecdsa.PrivateKey) ([]byte, error) {
	notBefore := tmpl.NotBefore
	if notBefore.IsZero() {
		notBefore = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	lifetime := tmpl.Lifetime
	if lifetime == 0 {
		lifetime = 10 * 365 * 24 * time.Hour
	}
	template := &x509.Certificate{
		SerialNumber: big.NewInt(tmpl.SerialNumber),
		Subject: pkix.Name{
			CommonName:         tmpl.CommonName,
			Organization:       []string{tmpl.Organization},
			OrganizationalUnit: []string{"fabric-membership-service"},
			Country:            []string{"SG"},
			Locality:           []string{"Singapore"},
			Province:           []string{"Singapore"},
		},
		NotBefore:             notBefore,
		NotAfter:              notBefore.Add(lifetime),
		KeyUsage:              x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  tmpl.IsCA,
	}
	if tmpl.IsCA {
		template.KeyUsage |= x509.KeyUsageCertSign
	}
	parent := issuer
	if parent == nil {
		parent = template // self-signed
	}
	der, err := x509.CreateCertificate(rand.Reader, template, parent, subjectPub, issuerKey)
	if err != nil {
		return nil, fmt.Errorf("create certificate %q: %w", tmpl.CommonName, err)
	}
	return der, nil
}

// ParseCertificate parses a DER certificate.
func ParseCertificate(der []byte) (*x509.Certificate, error) {
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("parse certificate: %w", err)
	}
	return cert, nil
}

// PublicKeyFromCert extracts the ECDSA public key from a DER certificate.
// This mirrors the protocol_processor's X.509 post-processor.
func PublicKeyFromCert(der []byte) (*ecdsa.PublicKey, error) {
	cert, err := ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	pub, ok := cert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return nil, errNotECDSA(cert)
	}
	return pub, nil
}

func errNotECDSA(cert *x509.Certificate) error {
	return fmt.Errorf("certificate %q: not an ECDSA key", cert.Subject.CommonName)
}

// MarshalPublicKey encodes an ECDSA public key in uncompressed point form
// (0x04 || X || Y), the representation loaded into hardware key registers.
func MarshalPublicKey(pub *ecdsa.PublicKey) []byte {
	out := make([]byte, 1+2*ScalarSize)
	out[0] = 4
	pub.X.FillBytes(out[1 : 1+ScalarSize])
	pub.Y.FillBytes(out[1+ScalarSize:])
	return out
}

// UnmarshalPublicKey decodes an uncompressed P-256 point.
func UnmarshalPublicKey(data []byte) (*ecdsa.PublicKey, error) {
	if len(data) != 1+2*ScalarSize || data[0] != 4 {
		return nil, errors.New("fabcrypto: bad uncompressed point encoding")
	}
	x := new(big.Int).SetBytes(data[1 : 1+ScalarSize])
	y := new(big.Int).SetBytes(data[1+ScalarSize:])
	pub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
	if !pub.Curve.IsOnCurve(x, y) {
		return nil, errors.New("fabcrypto: point not on curve")
	}
	return pub, nil
}
