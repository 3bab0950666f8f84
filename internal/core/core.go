// Package core implements the Blockchain Machine block processor (paper
// §3.3, Figure 6): a functional, goroutine-shaped emulation of the hardware
// parallel-pipelined validator.
//
// Structure, mirroring the RTL:
//
//	block_verify ──► block_validate ──► res_fifo ──► reg_map
//	                   │
//	                   ├─ tx_scheduler: issues transactions to free
//	                   │                tx_validator instances
//	                   ├─ N× tx_validator = tx_verify + tx_vscc
//	                   │     tx_vscc: E× ecdsa_engine, ends_scheduler with
//	                   │     short-circuit evaluation over the compiled
//	                   │     endorsement-policy circuits
//	                   ├─ tx_collector: reorders results into tx order
//	                   └─ tx_mvcc_commit: sequential mvcc + hardware KVS
//
// The two block-level stages overlap (block n+1 is verified while block n
// is validated), and inside block_validate multiple transactions stream
// through in parallel. Early-abort conditions skip ECDSA work as soon as a
// transaction is known invalid, and the ends_scheduler stops issuing
// endorsement verifications once the policy output is decided — the two
// behaviours responsible for the 2of3-vs-3of3 asymmetry of Figure 12a.
//
// This package computes *results* with real cryptography; the cycle-level
// *timing* of the same architecture is modeled by internal/hwsim.
package core

import (
	"fmt"
	"sync"
	"time"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/fifo"
	"bmac/internal/identity"
	"bmac/internal/policy"
	"bmac/internal/statedb"
)

// Config parameterizes the block processor architecture, the "NxE"
// notation of the paper (e.g. 8x2 = 8 tx_validators, 2 engines per vscc).
type Config struct {
	// TxValidators is the number of parallel tx_verify+tx_vscc instances.
	TxValidators int
	// VSCCEngines is the number of ecdsa_engine instances per tx_vscc.
	VSCCEngines int
	// Policies maps chaincode name to its compiled policy circuit
	// (the generated ends_policy_evaluator).
	Policies map[string]*policy.Circuit
	// DisableShortCircuit turns off the ends_scheduler's short-circuit
	// evaluation (ablation: behave like Fabric, verify everything).
	DisableShortCircuit bool
	// DisableEarlyAbort turns off the pipeline's early-abort conditions
	// (ablation: endorsements of already-invalid transactions are still
	// verified).
	DisableEarlyAbort bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.TxValidators < 1 {
		out.TxValidators = 1
	}
	if out.VSCCEngines < 1 {
		out.VSCCEngines = 1
	}
	return out
}

// Stats is collected by the block_monitor module per block.
type Stats struct {
	BlockVerifyTime time.Duration
	ValidateTime    time.Duration // block_validate stage wall time
	MVCCCommitTime  time.Duration

	TxCount       int
	EndsVerified  int // ecdsa_engine invocations in tx_vscc
	EndsSkipped   int // endorsements discarded by short-circuit/early-abort
	EngineInvokes int // all ecdsa_engine invocations (block + tx + ends)
}

// Result is the validation result of one block, as exposed through the
// reg_map registers: block number, valid bit, per-transaction flags and
// block statistics.
type Result struct {
	BlockNum   uint64
	BlockValid bool
	Flags      []byte
	Stats      Stats
}

// Processor is the block processor. Create with New, start with Start;
// results appear in the RegMap.
type Processor struct {
	cfg  Config
	bufs *bmacproto.Buffers
	db   *statedb.HardwareKVS

	res    *fifo.FIFO[Result]
	regmap *RegMap

	// polMu guards the live policy table; pendingPolicies is swapped in at
	// the next block boundary, modeling partial reconfiguration of the
	// ends_policy_evaluator without restarting the peer (paper §5).
	polMu           sync.RWMutex
	pendingPolicies map[string]*policy.Circuit

	wg sync.WaitGroup
}

// New creates a block processor reading from bufs and committing to db.
func New(cfg Config, bufs *bmacproto.Buffers, db *statedb.HardwareKVS) *Processor {
	return &Processor{
		cfg:    cfg.withDefaults(),
		bufs:   bufs,
		db:     db,
		res:    fifo.New[Result](8),
		regmap: NewRegMap(),
	}
}

// RegMap returns the hardware/software interface registers.
func (p *Processor) RegMap() *RegMap { return p.regmap }

// UpdatePolicies schedules a new set of compiled endorsement-policy
// circuits (a regenerated ends_policy_evaluator). The swap happens at the
// next block boundary — the partial-reconfiguration upgrade of paper §5
// that avoids restarting the peer when chaincodes change.
func (p *Processor) UpdatePolicies(circuits map[string]*policy.Circuit) {
	cp := make(map[string]*policy.Circuit, len(circuits))
	for k, v := range circuits {
		cp[k] = v
	}
	p.polMu.Lock()
	p.pendingPolicies = cp
	p.polMu.Unlock()
}

// applyPendingPolicies installs a scheduled policy table, if any; called
// at block boundaries only.
func (p *Processor) applyPendingPolicies() {
	p.polMu.Lock()
	if p.pendingPolicies != nil {
		p.cfg.Policies = p.pendingPolicies
		p.pendingPolicies = nil
	}
	p.polMu.Unlock()
}

// circuitFor looks up the live policy circuit for a chaincode.
func (p *Processor) circuitFor(cc string) (*policy.Circuit, bool) {
	p.polMu.RLock()
	c, ok := p.cfg.Policies[cc]
	p.polMu.RUnlock()
	return c, ok
}

// DB returns the in-hardware state database.
func (p *Processor) DB() *statedb.HardwareKVS { return p.db }

// verifiedBlock flows between the two block-level pipeline stages.
type verifiedBlock struct {
	entry      bmacproto.BlockEntry
	valid      bool
	verifyTime time.Duration
}

// Start launches the pipeline stages. Processing ends when the input
// buffers are closed; Wait blocks until then.
func (p *Processor) Start() {
	stage2 := make(chan verifiedBlock, 1) // 2-stage block-level pipeline

	// Stage 1: block_verify, with one dedicated ecdsa_engine.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(stage2)
		for {
			entry, ok := p.bufs.Block.Pop()
			if !ok {
				return
			}
			t := time.Now()
			valid := entry.Verify.Execute()
			stage2 <- verifiedBlock{entry: entry, valid: valid, verifyTime: time.Since(t)}
		}
	}()

	// Stage 2: block_validate + res_fifo writer.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.res.Close()
		for vb := range stage2 {
			res := p.validateBlock(vb)
			if err := p.res.Push(res); err != nil {
				return
			}
		}
	}()

	// block_monitor / reg_map writer.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.regmap.Close()
		for {
			res, ok := p.res.Pop()
			if !ok {
				return
			}
			p.regmap.write(res)
		}
	}()
}

// Wait blocks until the pipeline has drained after the buffers were closed.
func (p *Processor) Wait() { p.wg.Wait() }

// txJob bundles everything a tx_validator instance needs for one
// transaction: the tx_fifo entry plus its ends/rdset/wrset entries, popped
// by the tx_scheduler using the counts carried in the tx entry.
type txJob struct {
	entry      bmacproto.TxEntry
	ends       []bmacproto.EndsEntry
	reads      []block.KVRead
	writes     []block.KVWrite
	blockValid bool
}

// txResult is what a tx_validator forwards to the tx_collector.
type txResult struct {
	seq           int
	code          block.ValidationCode
	reads         []block.KVRead
	writes        []block.KVWrite
	engineInvokes int // all ecdsa_engine uses by this transaction
	endsVerified  int // vscc endorsement verifications only
	endsSkipped   int
}

// validateBlock runs the block_validate stage for one block.
func (p *Processor) validateBlock(vb verifiedBlock) Result {
	p.applyPendingPolicies()
	start := time.Now()
	n := vb.entry.NumTxs
	res := Result{
		BlockNum:   vb.entry.BlockNum,
		BlockValid: vb.valid,
		Flags:      make([]byte, n),
	}
	res.Stats.TxCount = n
	res.Stats.BlockVerifyTime = vb.verifyTime
	res.Stats.EngineInvokes = 1 // block_verify

	jobs := make(chan txJob)
	results := make(chan txResult)

	// tx_validator instances, each with its tx_vscc's E ecdsa_engines
	// running for the whole block.
	var validators, engines sync.WaitGroup
	for i := 0; i < p.cfg.TxValidators; i++ {
		vscc := newVSCCEngines(p.cfg.VSCCEngines, &engines)
		validators.Add(1)
		go func() {
			defer validators.Done()
			defer close(vscc.checks)
			for job := range jobs {
				results <- p.runTxValidator(job, vscc)
			}
		}()
	}

	// tx_collector + tx_mvcc_commit, consuming results in order.
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		pending := make(map[int]txResult)
		nextSeq := 0
		writtenInBlock := make(map[string]bool, n)
		mvccStart := time.Now()
		for r := range results {
			pending[r.seq] = r
			for {
				cur, ok := pending[nextSeq]
				if !ok {
					break
				}
				delete(pending, nextSeq)
				p.mvccCommitOne(&cur, vb.entry.BlockNum, writtenInBlock)
				res.Flags[cur.seq] = byte(cur.code)
				res.Stats.EndsVerified += cur.endsVerified
				res.Stats.EndsSkipped += cur.endsSkipped
				res.Stats.EngineInvokes += cur.engineInvokes
				nextSeq++
			}
		}
		res.Stats.MVCCCommitTime = time.Since(mvccStart)
	}()

	// tx_scheduler: pop each transaction and its dependent FIFO entries in
	// order, then dispatch to a free tx_validator.
	for seq := 0; seq < n; seq++ {
		entry, ok := p.bufs.Tx.Pop()
		if !ok {
			break // input closed mid-block: abandon remaining txs
		}
		job := txJob{entry: entry, blockValid: vb.valid}
		job.ends = make([]bmacproto.EndsEntry, 0, entry.NumEnds)
		for e := 0; e < entry.NumEnds; e++ {
			ee, ok := p.bufs.Ends.Pop()
			if !ok {
				break
			}
			job.ends = append(job.ends, ee)
		}
		job.reads = make([]block.KVRead, 0, entry.RdsetSize)
		for r := 0; r < entry.RdsetSize; r++ {
			re, ok := p.bufs.Rdset.Pop()
			if !ok {
				break
			}
			job.reads = append(job.reads, re.Read)
		}
		job.writes = make([]block.KVWrite, 0, entry.WrsetSize)
		for w := 0; w < entry.WrsetSize; w++ {
			we, ok := p.bufs.Wrset.Pop()
			if !ok {
				break
			}
			job.writes = append(job.writes, we.Write)
		}
		jobs <- job
	}
	close(jobs)
	validators.Wait()
	engines.Wait()
	close(results)
	<-collectorDone

	res.Stats.ValidateTime = time.Since(start)
	return res
}

// vsccEngines is one tx_vscc's E ecdsa_engine goroutines. The
// ends_scheduler hands them one batch of at most E endorsement checks at a
// time and waits for the batch's verdicts.
type vsccEngines struct {
	checks   chan engineCheck
	verdicts []bool
	batch    sync.WaitGroup
}

// engineCheck is one endorsement verification issued to an ecdsa_engine.
type engineCheck struct {
	req *bmacproto.VerifyRequest
	out *bool
}

// newVSCCEngines starts n engines, which exit (and mark running done) once
// checks is closed.
func newVSCCEngines(n int, running *sync.WaitGroup) *vsccEngines {
	e := &vsccEngines{checks: make(chan engineCheck), verdicts: make([]bool, n)}
	for i := 0; i < n; i++ {
		running.Add(1)
		go func() {
			defer running.Done()
			for c := range e.checks {
				*c.out = c.req.Execute()
				e.batch.Done()
			}
		}()
	}
	return e
}

// verify runs a batch of at most E checks in parallel, one per engine; the
// returned verdicts are valid until the next call.
func (e *vsccEngines) verify(batch []bmacproto.EndsEntry) []bool {
	verdicts := e.verdicts[:len(batch)]
	e.batch.Add(len(batch))
	for i := range batch {
		e.checks <- engineCheck{req: &batch[i].Verify, out: &verdicts[i]}
	}
	e.batch.Wait()
	return verdicts
}

// runTxValidator is one tx_validator instance: tx_verify then tx_vscc.
func (p *Processor) runTxValidator(job txJob, vscc *vsccEngines) txResult {
	out := txResult{seq: job.entry.Seq, reads: job.reads, writes: job.writes}

	// tx_verify: skip when the block is already invalid (early abort).
	if !job.blockValid && !p.cfg.DisableEarlyAbort {
		out.code = block.InvalidOther
		out.endsSkipped = len(job.ends)
		return out
	}
	txValid := job.entry.Verify.Execute()
	out.engineInvokes++ // the tx_verify engine invocation
	if !job.blockValid {
		// Early abort disabled: work was done, result still invalid.
		out.code = block.InvalidOther
		out.endsSkipped = len(job.ends)
		return out
	}
	if !txValid {
		out.code = block.BadSignature
		if !p.cfg.DisableEarlyAbort {
			out.endsSkipped = len(job.ends)
			return out
		}
	}

	// tx_vscc: endorsement verification + policy circuit.
	circuit, ok := p.circuitFor(job.entry.CCName)
	if !ok {
		out.code = block.InvalidOther
		out.endsSkipped = len(job.ends)
		return out
	}
	var rf policy.RegisterFile
	rf.Clear()
	idx := 0
	for idx < len(job.ends) {
		if !p.cfg.DisableShortCircuit {
			// Validity short-circuit: policy already satisfied.
			if circuit.Evaluate(&rf) {
				break
			}
			// Invalidity short-circuit: policy can never be satisfied.
			remaining := make([]identity.EncodedID, 0, len(job.ends)-idx)
			for _, e := range job.ends[idx:] {
				remaining = append(remaining, e.EndorserID)
			}
			if !circuit.CanStillSatisfy(&rf, remaining) {
				break
			}
		}
		// Issue a batch of up to VSCCEngines verifications in parallel —
		// the ends_scheduler keeping all engine instances busy.
		batch := job.ends[idx:min(idx+p.cfg.VSCCEngines, len(job.ends))]
		for i, v := range vscc.verify(batch) {
			out.endsVerified++
			out.engineInvokes++
			if v {
				rf.SetID(batch[i].EndorserID)
			}
		}
		idx += len(batch)
	}
	out.endsSkipped += len(job.ends) - idx

	if out.code == block.Valid { // not already invalidated by tx_verify
		if !circuit.Evaluate(&rf) {
			out.code = block.EndorsementPolicyFailure
		}
	}
	return out
}

// mvccCommitOne is the tx_mvcc_commit stage for one transaction, executed
// strictly in transaction order by the collector goroutine.
func (p *Processor) mvccCommitOne(r *txResult, blockNum uint64, writtenInBlock map[string]bool) {
	if r.code != block.Valid {
		return // mvcc and commit skipped for invalid transactions
	}
	for _, rd := range r.reads {
		if writtenInBlock[rd.Key] {
			r.code = block.MVCCReadConflict
			return
		}
		cur, _ := p.db.Version(rd.Key)
		if cur != rd.Version {
			r.code = block.MVCCReadConflict
			return
		}
	}
	for _, w := range r.writes {
		// Capacity exhaustion marks the transaction invalid rather than
		// wedging the pipeline; see paper §5 on database scaling.
		if err := p.db.Write(w.Key, w.Value, block.Version{BlockNum: blockNum, TxNum: uint64(r.seq)}); err != nil {
			r.code = block.InvalidOther
			return
		}
		writtenInBlock[w.Key] = true
	}
}

// GetBlockData is the primary API function of paper §3.5: it blocks until
// the hardware has a validation result and returns it in a form compatible
// with the peer software. ok=false means the pipeline has shut down.
func (p *Processor) GetBlockData() (Result, bool) {
	return p.regmap.Read()
}

// RegMap models the AXI-Lite register interface (paper §3.4): it holds one
// block result and blocks new writes until the CPU has read the previous
// result, so results are never overwritten.
type RegMap struct {
	mu       sync.Mutex
	nonFull  *sync.Cond
	nonEmpty *sync.Cond
	cur      Result
	full     bool
	closed   bool
}

// NewRegMap creates an empty register map.
func NewRegMap() *RegMap {
	r := &RegMap{}
	r.nonFull = sync.NewCond(&r.mu)
	r.nonEmpty = sync.NewCond(&r.mu)
	return r
}

// write stores a result, blocking until the previous one was read.
func (r *RegMap) write(res Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.full && !r.closed {
		r.nonFull.Wait()
	}
	if r.closed {
		return
	}
	r.cur = res
	r.full = true
	r.nonEmpty.Signal()
}

// Read blocks until a result is available. ok=false after Close with no
// pending result.
func (r *RegMap) Read() (Result, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.full && !r.closed {
		r.nonEmpty.Wait()
	}
	if !r.full {
		return Result{}, false
	}
	res := r.cur
	r.full = false
	r.nonFull.Signal()
	return res, true
}

// Close marks end-of-stream.
func (r *RegMap) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.nonFull.Broadcast()
	r.nonEmpty.Broadcast()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// String renders the architecture name, e.g. "8x2".
func (c Config) String() string {
	return fmt.Sprintf("%dx%d", c.TxValidators, c.VSCCEngines)
}
