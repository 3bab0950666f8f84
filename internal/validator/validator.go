// Package validator implements the software-only validator peer: the
// baseline the Blockchain Machine is compared against (paper Figure 2a).
//
// The pipeline reproduces Fabric v1.4's validation phase with its known
// bottlenecks:
//
//  1. unmarshal   — recursive decode of the deeply nested block protobuf
//  2. block verify — orderer signature over the header
//  3. verify_vscc — per transaction: client signature, then vscc
//     (verify ALL endorsements — Fabric does not short-circuit — and
//     evaluate the endorsement policy sequentially) with a configurable
//     number of parallel worker threads (the "vscc threads" == vCPUs knob)
//  4. mvcc        — sequential read-set version check
//  5. commit      — state database write batch, then ledger commit
//
// Every stage is timestamped so the experiments can reproduce the
// bottleneck breakdowns of Figures 3 and 10.
package validator

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"bmac/internal/block"
	"bmac/internal/fabcrypto"
	"bmac/internal/identity"
	"bmac/internal/ledger"
	"bmac/internal/policy"
	"bmac/internal/statedb"
	"bmac/internal/telemetry"
)

// Breakdown records where validation time went for one block, mirroring the
// coarse breakdown of Figure 3b / Figure 10 (stage level) and the profiling
// view of Figure 3a (operation level).
type Breakdown struct {
	// Stage-level (Figure 10 categories).
	Unmarshal    time.Duration
	BlockVerify  time.Duration
	VerifyVSCC   time.Duration
	MVCC         time.Duration
	StateDB      time.Duration // mvcc reads + commit writes
	LedgerCommit time.Duration
	Total        time.Duration

	// PrefetchWait is the residual stall the pipelined engine's mvcc stage
	// spent waiting for the async read-set prefetch to finish — the part of
	// the host-database latency that vscc did NOT hide (zero for the
	// sequential validator, which has no prefetch stage).
	PrefetchWait time.Duration

	// Operation-level (Figure 3a categories). ECDSATime/ECDSACount cover
	// REAL curve verifications only; a signature served from the process
	// verification cache is counted separately below, so a cache-induced
	// speedup is visible in the numbers rather than hidden inside them.
	ECDSATime   time.Duration
	ECDSACount  int
	SHA256Time  time.Duration
	SHA256Count int

	// SigCacheHits/SigCacheTime account verifications answered by the
	// fabcrypto.SigCache (one hash + lookup each, no curve math).
	SigCacheHits int
	SigCacheTime time.Duration
	// ParseCacheHits counts transaction payloads served from the
	// parse-once interning table instead of a full unmarshal walk.
	ParseCacheHits int
}

// Add accumulates another breakdown (for experiment averaging).
func (b *Breakdown) Add(o Breakdown) {
	b.Unmarshal += o.Unmarshal
	b.BlockVerify += o.BlockVerify
	b.VerifyVSCC += o.VerifyVSCC
	b.MVCC += o.MVCC
	b.StateDB += o.StateDB
	b.LedgerCommit += o.LedgerCommit
	b.Total += o.Total
	b.PrefetchWait += o.PrefetchWait
	b.ECDSATime += o.ECDSATime
	b.ECDSACount += o.ECDSACount
	b.SHA256Time += o.SHA256Time
	b.SHA256Count += o.SHA256Count
	b.SigCacheHits += o.SigCacheHits
	b.SigCacheTime += o.SigCacheTime
	b.ParseCacheHits += o.ParseCacheHits
}

// Result is the outcome of validating and committing one block.
type Result struct {
	BlockNum   uint64
	BlockValid bool
	Flags      []byte // one block.ValidationCode per transaction
	CommitHash []byte
	Breakdown  Breakdown
}

// Config parameterizes the software validator.
type Config struct {
	// Workers is the number of parallel vscc threads (the vCPU knob in the
	// paper's experiments).
	Workers int
	// Policies maps chaincode name to its endorsement policy.
	Policies map[string]*policy.Policy
	// SkipLedger excludes the ledger commit (the paper's metrics exclude
	// it "for direct comparison between hardware and software" — §4.2).
	SkipLedger bool
	// SigCache, when non-nil, memoizes signature verdicts so a signature
	// already seen by ANY path sharing the cache (this validator, the
	// pipelined engine, a replay) costs one hash + lookup instead of a
	// curve verification. Verdicts are identical either way.
	SigCache *fabcrypto.SigCache
	// BatchVerifyWorkers > 1 fans a transaction's endorsement checks
	// across a worker pool (fabcrypto.VerifyBatch). 0 or 1 verifies
	// sequentially.
	BatchVerifyWorkers int
	// CertCache, when non-nil, interns parsed X.509 identity certificates
	// (fabcrypto.CertCache): the same creator/endorser/orderer certs recur
	// in every transaction, and x509.ParseCertificate rivals the ECDSA
	// math in allocations.
	CertCache *fabcrypto.CertCache
	// ParseCache, when non-nil, interns ParseTx results by payload hash so
	// an envelope decoded by any sharing path is unmarshaled once per
	// process (parse-once). Cached results are shared and read-only.
	ParseCache *ParseCache
	// Metrics, when non-nil, mirrors each committed block's Breakdown into
	// the telemetry registry's per-stage histograms. Nil (telemetry off)
	// costs one predicted branch per block.
	Metrics *telemetry.ValidatorMetrics
}

// VerifyOpts bundles the optional verification accelerators threaded
// through the exported verify helpers; the zero value means "no caching,
// sequential endorsement checks" — the exact pre-optimization behavior.
type VerifyOpts struct {
	SigCache     *fabcrypto.SigCache
	CertCache    *fabcrypto.CertCache
	BatchWorkers int
}

func (v *Validator) verifyOpts() VerifyOpts {
	return VerifyOpts{
		SigCache:     v.cfg.SigCache,
		CertCache:    v.cfg.CertCache,
		BatchWorkers: v.cfg.BatchVerifyWorkers,
	}
}

// ErrBlockInvalid reports a block that failed block-level verification —
// a bad orderer signature or a DataHash that does not bind the delivered
// envelopes; the block is discarded without committing.
var ErrBlockInvalid = errors.New("validator: block verification failed")

// Validator is a software-only validator peer core. It runs against any
// statedb.KVS backend (plain, sharded or hybrid hardware/host).
type Validator struct {
	cfg    Config
	store  statedb.KVS
	ledger *ledger.Ledger
}

// New creates a validator over the given state database and ledger (ledger
// may be nil when cfg.SkipLedger is set).
func New(cfg Config, store statedb.KVS, led *ledger.Ledger) *Validator {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return &Validator{cfg: cfg, store: store, ledger: led}
}

// Store returns the validator's state database.
func (v *Validator) Store() statedb.KVS { return v.store }

// ParsedTx is the fully unmarshaled view of one transaction. It is shared
// with internal/pipeline so both commit engines decode transactions through
// the same code path.
type ParsedTx struct {
	Tx   *block.Transaction
	RW   *block.RWSet
	PRP  []byte
	Err  error
	Code block.ValidationCode
}

// ParseTx decodes one envelope payload into a ParsedTx. Decode failures are
// recorded in Err/Code rather than returned, because a malformed transaction
// invalidates only itself (BadPayload), never the block.
func ParseTx(payloadBytes []byte) ParsedTx {
	tx, err := block.UnmarshalTransactionPayload(payloadBytes)
	if err != nil {
		return ParsedTx{Err: err, Code: block.BadPayload}
	}
	prp, err := block.UnmarshalProposalResponsePayload(tx.Payload.Action.ProposalResponseBytes)
	if err != nil {
		return ParsedTx{Err: err, Code: block.BadPayload}
	}
	return ParsedTx{Tx: tx, RW: &prp.Extension.Results, PRP: tx.Payload.Action.ProposalResponseBytes}
}

// ValidateAndCommit runs the full validation pipeline on a marshaled block.
// It accepts raw bytes because the unmarshaling cost is part of what the
// paper measures: the block decode is charged to Breakdown.Unmarshal along
// with the transaction payload parsing.
func (v *Validator) ValidateAndCommit(raw []byte) (*Result, error) {
	start := time.Now()
	b, err := block.Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	return v.validateAndCommit(b, start)
}

// ValidateAndCommitBlock validates an already-decoded block — the path a
// gossip peer takes, since gossip.ReadBlock decoded the block once on
// receipt. Breakdown.Unmarshal then covers transaction payload parsing
// only. The caller's block is never written: the validation flags and
// commit hash are set on a shallow copy, so one block may be committed to
// several peers at once.
func (v *Validator) ValidateAndCommitBlock(b *block.Block) (*Result, error) {
	own := *b
	return v.validateAndCommit(&own, time.Now())
}

// validateAndCommit runs stages 1-5 on a block this call may write; the
// unmarshal stage is timed from start.
func (v *Validator) validateAndCommit(b *block.Block, start time.Time) (*Result, error) {
	var bd Breakdown

	// Stage 1: unmarshal every transaction payload (bottleneck 1).
	txs := make([]ParsedTx, len(b.Envelopes))
	for i := range b.Envelopes {
		var hit bool
		txs[i], hit = v.cfg.ParseCache.ParseTx(b.Envelopes[i].PayloadBytes)
		if hit {
			bd.ParseCacheHits++
		}
	}
	bd.Unmarshal = time.Since(start)

	res := &Result{BlockNum: b.Header.Number, Flags: make([]byte, len(txs))}

	// Stage 2: block verification (orderer signature).
	tBlk := time.Now()
	blockErr := VerifyOrderer(b, v.verifyOpts(), &bd)
	bd.BlockVerify = time.Since(tBlk)
	if blockErr != nil {
		for i := range res.Flags {
			res.Flags[i] = byte(block.InvalidOther)
		}
		res.Breakdown = bd
		res.Breakdown.Total = time.Since(start)
		return res, fmt.Errorf("%w: %v", ErrBlockInvalid, blockErr)
	}
	res.BlockValid = true

	// Stage 3: verify + vscc with parallel workers.
	tVscc := time.Now()
	v.verifyVSCCParallel(b, txs, res.Flags, &bd)
	bd.VerifyVSCC = time.Since(tVscc)

	// Stage 4: mvcc, strictly sequential in transaction order.
	tMvcc := time.Now()
	writtenInBlock := make(map[string]bool)
	for i := range txs {
		if res.Flags[i] != byte(block.Valid) {
			continue
		}
		if conflict := v.mvccOne(txs[i].RW, writtenInBlock); conflict {
			res.Flags[i] = byte(block.MVCCReadConflict)
			continue
		}
		for _, w := range txs[i].RW.Writes {
			writtenInBlock[w.Key] = true
		}
	}
	bd.MVCC = time.Since(tMvcc)

	// Stage 5a: state database commit (write sets of valid transactions).
	tDB := time.Now()
	for i := range txs {
		if res.Flags[i] != byte(block.Valid) {
			continue
		}
		ver := block.Version{BlockNum: b.Header.Number, TxNum: uint64(i)}
		v.store.WriteBatch(txs[i].RW.Writes, ver)
	}
	bd.StateDB = bd.MVCC + time.Since(tDB) // mvcc reads + commit writes

	// Stage 5b: ledger commit.
	b.Metadata.ValidationFlags = res.Flags
	if !v.cfg.SkipLedger && v.ledger != nil {
		tLed := time.Now()
		ch, err := v.ledger.Commit(b)
		if err != nil {
			return nil, fmt.Errorf("ledger commit block %d: %w", b.Header.Number, err)
		}
		res.CommitHash = ch
		bd.LedgerCommit = time.Since(tLed)
	} else {
		// Compute the commit hash chain value anyway for cross-checking.
		res.CommitHash = block.CommitHash(nil, b.Header.DataHash, res.Flags)
	}

	bd.Total = time.Since(start)
	res.Breakdown = bd
	v.cfg.Metrics.ObserveBlock(len(txs), bd.Unmarshal, bd.BlockVerify, bd.VerifyVSCC,
		bd.MVCC, bd.StateDB, bd.LedgerCommit, bd.PrefetchWait, bd.Total)
	return res, nil
}

// VerifyOrderer verifies the block metadata signature and that the header's
// DataHash binds the delivered envelopes, attributing hash and ECDSA time to
// the operation counters. Exported so internal/pipeline's block-verify stage
// is the same code as the sequential validator's.
func VerifyOrderer(b *block.Block, opts VerifyOpts, bd *Breakdown) error {
	// The orderer signature covers the header only; the header's DataHash
	// is what binds the envelope bytes. Recompute it so a block whose
	// envelopes were corrupted in flight (but still decoded) is rejected
	// here instead of committing divergent content.
	t := time.Now()
	dh := block.DataHash(b.Envelopes)
	bd.SHA256Time += time.Since(t)
	bd.SHA256Count++
	if !bytes.Equal(dh, b.Header.DataHash) {
		return errors.New("header DataHash does not match envelopes")
	}
	ms := &b.Metadata.Signature
	pub, err := opts.CertCache.KeyFromCert(ms.Creator)
	if err != nil {
		return err
	}
	msg := block.OrdererSigningBytes(&b.Header, ms.Nonce, ms.Creator)
	digest := timedHash(msg, bd)
	return timedVerify(pub, digest, ms.Signature, opts.SigCache, bd)
}

func timedHash(msg []byte, bd *Breakdown) []byte {
	t := time.Now()
	d := sha256.Sum256(msg)
	bd.SHA256Time += time.Since(t)
	bd.SHA256Count++
	return d[:]
}

// timedVerify routes one signature check through the cache (nil means a
// direct verification) and attributes its cost to the matching counters: a
// real verify lands in ECDSATime/Count, a cache hit in SigCacheHits/Time.
func timedVerify(pub *fabcrypto.Key, digest, sig []byte, cache *fabcrypto.SigCache, bd *Breakdown) error {
	t := time.Now()
	err, hit := cache.VerifyDigest(pub, digest, sig)
	d := time.Since(t)
	if hit {
		bd.SigCacheHits++
		bd.SigCacheTime += d
	} else {
		bd.ECDSATime += d
		bd.ECDSACount++
	}
	return err
}

// verifyVSCCParallel runs transaction verification and vscc across
// cfg.Workers goroutines — the parallel "vscc threads" of a Fabric peer.
// Per Fabric behaviour, every endorsement is signature-verified even when
// the policy is already satisfied, and the policy expression is evaluated
// without short-circuiting.
func (v *Validator) verifyVSCCParallel(b *block.Block, txs []ParsedTx, flags []byte, bd *Breakdown) {
	var (
		mu   sync.Mutex // merges per-worker op counters
		next int
	)
	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		var local Breakdown
		for {
			mu.Lock()
			i := next
			next++
			mu.Unlock()
			if i >= len(txs) {
				break
			}
			flags[i] = byte(VSCCOne(&b.Envelopes[i], &txs[i], v.cfg.Policies, v.verifyOpts(), &local))
		}
		mu.Lock()
		bd.Add(local)
		mu.Unlock()
	}
	workers := v.cfg.Workers
	if workers > len(txs) && len(txs) > 0 {
		workers = len(txs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go worker()
	}
	wg.Wait()
}

// VSCCOne validates one transaction: client signature, then all endorsement
// signatures, then the endorsement policy. Exported so internal/pipeline's
// vscc stage shares the exact Fabric-equivalent semantics (every endorsement
// verified, no short-circuiting). The optional verification cache and
// batched endorsement checks leave verdicts bit-identical: the cache
// memoizes, the batch only reorders independent verifications.
func VSCCOne(env *block.Envelope, p *ParsedTx, policies map[string]*policy.Policy, opts VerifyOpts, bd *Breakdown) block.ValidationCode {
	if p.Err != nil {
		return p.Code
	}
	// Transaction verification: client signature over the payload.
	pub, err := opts.CertCache.KeyFromCert(p.Tx.SignatureHeader.Creator)
	if err != nil {
		return block.BadCreator
	}
	digest := timedHash(env.PayloadBytes, bd)
	if err := timedVerify(pub, digest, env.Signature, opts.SigCache, bd); err != nil {
		return block.BadSignature
	}

	// vscc: verify EVERY endorsement (Fabric does not short-circuit).
	var rf policy.RegisterFile
	ends := p.Tx.Payload.Action.Endorsements
	if opts.BatchWorkers > 1 && len(ends) > 1 {
		verifyEndorsementsBatch(p, ends, opts, &rf, bd)
	} else {
		for i := range ends {
			e := &ends[i]
			epub, err := opts.CertCache.KeyFromCert(e.Endorser)
			if err != nil {
				continue // unverifiable endorsement contributes nothing
			}
			msg := block.EndorsementSigningBytes(p.PRP, e.Endorser)
			edigest := timedHash(msg, bd)
			if err := timedVerify(epub, edigest, e.Signature, opts.SigCache, bd); err != nil {
				continue
			}
			endorserToRegister(opts.CertCache, e.Endorser, &rf)
		}
	}

	pol, ok := policies[p.Tx.ChannelHeader.ChaincodeName]
	if !ok {
		return block.InvalidOther // no policy installed for this chaincode
	}
	if !pol.EvalSequential(&rf) {
		return block.EndorsementPolicyFailure
	}
	return block.Valid
}

// verifyEndorsementsBatch fans one transaction's endorsement signature
// checks across fabcrypto.VerifyBatch. The register-file outcome is
// identical to the sequential loop: only verifications are overlapped, and
// per-operation timing is accumulated as measured on each worker.
func verifyEndorsementsBatch(p *ParsedTx, ends []block.Endorsement, opts VerifyOpts, rf *policy.RegisterFile, bd *Breakdown) {
	reqs := make([]fabcrypto.VerifyRequest, 0, len(ends))
	srcs := make([]int, 0, len(ends)) // endorsement index per request
	for i := range ends {
		e := &ends[i]
		epub, err := opts.CertCache.KeyFromCert(e.Endorser)
		if err != nil {
			continue // unverifiable endorsement contributes nothing
		}
		msg := block.EndorsementSigningBytes(p.PRP, e.Endorser)
		reqs = append(reqs, fabcrypto.VerifyRequest{Pub: epub, Digest: timedHash(msg, bd), Sig: e.Signature})
		srcs = append(srcs, i)
	}
	results := opts.SigCache.VerifyBatch(reqs, opts.BatchWorkers)
	for k, r := range results {
		if r.CacheHit {
			bd.SigCacheHits++
			bd.SigCacheTime += r.Elapsed
		} else {
			bd.ECDSACount++
			bd.ECDSATime += r.Elapsed
		}
		if r.Err != nil {
			continue
		}
		endorserToRegister(opts.CertCache, ends[srcs[k]].Endorser, rf)
	}
}

// endorserToRegister parses an endorser certificate (through the cert
// cache when one is configured) and sets its (org, role) bit in the policy
// register file, ignoring unparsable certificates exactly as the
// endorsement loop always has.
func endorserToRegister(cc *fabcrypto.CertCache, endorser []byte, rf *policy.RegisterFile) {
	cert, err := cc.ParseCertificate(endorser)
	if err != nil {
		return
	}
	org, role, ok := orgRoleOf(cert.Subject.Organization, cert.Subject.CommonName)
	if ok {
		rf.Set(org, role)
	}
}

// orgRoleOf maps certificate subject fields back to (org number, role).
// Organization names follow the OrgN convention used throughout the
// repository; common names are "<role><seq>.<org>".
func orgRoleOf(orgs []string, cn string) (uint8, identity.Role, bool) {
	if len(orgs) != 1 {
		return 0, 0, false
	}
	var orgNum int
	if _, err := fmt.Sscanf(orgs[0], "Org%d", &orgNum); err != nil || orgNum < 1 || orgNum > 255 {
		return 0, 0, false
	}
	role := identity.RolePeer
	switch {
	case strings.HasPrefix(cn, "peer"):
		role = identity.RolePeer
	case strings.HasPrefix(cn, "admin"):
		role = identity.RoleAdmin
	case strings.HasPrefix(cn, "orderer"):
		role = identity.RoleOrderer
	case strings.HasPrefix(cn, "client"):
		role = identity.RoleClient
	}
	return uint8(orgNum), role, true
}

// mvccOne re-checks a transaction's read set against the current state
// database and the keys written earlier in this block, returning true on
// conflict.
func (v *Validator) mvccOne(rw *block.RWSet, writtenInBlock map[string]bool) bool {
	for _, r := range rw.Reads {
		if writtenInBlock[r.Key] {
			return true // an earlier tx in this block already wrote it
		}
	}
	return v.store.MVCCCheck(rw.Reads) != nil
}
