package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bmac/internal/block"
	"bmac/internal/fabcrypto"
	"bmac/internal/ledger"
	"bmac/internal/policy"
	"bmac/internal/statedb"
	"bmac/internal/telemetry"
	"bmac/internal/validator"
)

// Config parameterizes the parallel commit engine.
type Config struct {
	// Workers is the goroutine budget per parallel stage (unmarshal, vscc,
	// mvcc/commit). Zero means GOMAXPROCS.
	Workers int
	// Policies maps chaincode name to its endorsement policy.
	Policies map[string]*policy.Policy
	// SkipLedger excludes the ledger commit, as the paper's metrics do.
	SkipLedger bool
	// Depth is the number of blocks allowed in flight between stages
	// (default 4). Higher values buy more inter-block overlap at the cost
	// of memory.
	Depth int
	// Prefetch enables the async read-set warm-up stage: distinct read-set
	// keys are read from the backend as soon as a block is unmarshalled, so
	// slow-backend misses (e.g. HybridKVS host reads) are absorbed while
	// the block is still in vscc. Verdicts are identical either way.
	Prefetch bool
	// PrefetchWorkers bounds the warm-up reader pool (default Workers).
	PrefetchWorkers int
	// SigCache memoizes signature verdicts across blocks and across every
	// path sharing the cache (see validator.Config.SigCache). Optional.
	SigCache *fabcrypto.SigCache
	// CertCache interns parsed X.509 identity certificates (see
	// validator.Config.CertCache). Optional.
	CertCache *fabcrypto.CertCache
	// BatchVerifyWorkers > 1 fans each transaction's endorsement checks
	// across a worker pool in the vscc stage.
	BatchVerifyWorkers int
	// ParseCache interns ParseTx results by payload hash (parse-once, see
	// validator.Config.ParseCache). Optional.
	ParseCache *validator.ParseCache
	// Metrics, when non-nil, mirrors each flushed block's Breakdown into
	// the telemetry registry's per-stage histograms. Nil (telemetry off)
	// costs one predicted branch per block.
	Metrics *telemetry.ValidatorMetrics
}

func (c *Config) verifyOpts() validator.VerifyOpts {
	return validator.VerifyOpts{
		SigCache:     c.SigCache,
		CertCache:    c.CertCache,
		BatchWorkers: c.BatchVerifyWorkers,
	}
}

// Result is the outcome of one block, identical in content to the
// sequential validator's result.
type Result = validator.Result

// Outcome pairs a block result with its error, preserving submission order
// on the Results channel. Err mirrors the sequential validator's error
// return (e.g. validator.ErrBlockInvalid for a bad orderer signature).
type Outcome struct {
	Res *Result
	Err error
}

// job carries one block through the stage pipeline. A job submitted as raw
// bytes is decoded by the parse stage; one submitted as a block carries b
// from the start.
type job struct {
	raw   []byte
	start time.Time

	b    *block.Block
	txs  []validator.ParsedTx
	res  *Result
	err  error
	bd   validator.Breakdown
	skip bool // no commit: unmarshal or block verification failed

	// warm tracks the block's async read-set prefetch; the mvcc stage waits
	// on it so a warm-up read and a committed write can't interleave
	// mid-check. nil when prefetch is off or the block never parsed.
	warm *sync.WaitGroup
}

// Engine is the parallel pipelined commit engine. Blocks submitted in order
// flow through four stages — unmarshal (plus async read-set prefetch),
// block-verify+vscc, dependency-scheduled mvcc, state/ledger flush — each
// stage a goroutine, so up to four blocks are processed concurrently, and
// the heavy stages additionally fan work out across Workers goroutines.
//
// The engine runs over any statedb.KVS backend; with cfg.Prefetch the
// warm-up readers hide a slow backend's read latency under vscc.
//
// Blocks must be submitted in increasing header-number order by a single
// goroutine (or via the synchronous ValidateAndCommit and
// ValidateAndCommitBlock).
type Engine struct {
	cfg   Config
	cache *MVCache
	led   *ledger.Ledger
	pf    *prefetcher // nil when cfg.Prefetch is off

	in  chan *job
	out chan Outcome

	closeOnce sync.Once
	done      chan struct{}
}

// New creates and starts an engine over its own stage goroutines. led may
// be nil when cfg.SkipLedger is set.
func New(cfg Config, store statedb.KVS, led *ledger.Ledger) *Engine {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Depth < 1 {
		cfg.Depth = 4
	}
	if cfg.PrefetchWorkers < 1 {
		cfg.PrefetchWorkers = cfg.Workers
	}
	e := &Engine{
		cfg:   cfg,
		cache: NewMVCache(store),
		led:   led,
		in:    make(chan *job, cfg.Depth),
		out:   make(chan Outcome, cfg.Depth),
		done:  make(chan struct{}),
	}
	if cfg.Prefetch {
		e.pf = newPrefetcher(store, cfg.PrefetchWorkers)
	}
	parsed := make(chan *job, cfg.Depth)
	verified := make(chan *job, cfg.Depth)
	decided := make(chan *job, cfg.Depth)
	go e.parseStage(e.in, parsed)
	go e.verifyStage(parsed, verified)
	go e.decideStage(verified, decided)
	go e.flushStage(decided)
	return e
}

// Store returns the backing state database.
func (e *Engine) Store() statedb.KVS { return e.cache.Store() }

// PrefetchedKeys reports the total number of warm-up reads issued by the
// prefetch stage (0 when prefetch is off).
func (e *Engine) PrefetchedKeys() int {
	if e.pf == nil {
		return 0
	}
	return e.pf.prefetched()
}

// Cache returns the multi-version state cache.
func (e *Engine) Cache() *MVCache { return e.cache }

// Submit feeds one marshaled block into the pipeline. Results arrive on
// Results() in submission order.
func (e *Engine) Submit(raw []byte) {
	e.in <- &job{raw: raw, start: time.Now()}
}

// Results delivers one Outcome per submitted block, in order.
func (e *Engine) Results() <-chan Outcome { return e.out }

// ValidateAndCommit runs one block synchronously through the pipeline:
// same contract as validator.Validator.ValidateAndCommit. Within a single
// block the engine still parallelizes unmarshal, vscc and the dependency-
// scheduled commit; inter-block overlap requires Submit.
func (e *Engine) ValidateAndCommit(raw []byte) (*Result, error) {
	e.Submit(raw)
	o := <-e.out
	return o.Res, o.Err
}

// ValidateAndCommitBlock is ValidateAndCommit for an already-decoded block,
// with the same contract as validator.Validator.ValidateAndCommitBlock: the
// parse stage skips the block decode, and the caller's block is never
// written (the engine commits a shallow copy).
func (e *Engine) ValidateAndCommitBlock(b *block.Block) (*Result, error) {
	own := *b
	e.in <- &job{b: &own, start: time.Now()}
	o := <-e.out
	return o.Res, o.Err
}

// Close drains the pipeline and releases the stage goroutines. The engine
// must not be used afterwards. The ledger, if any, is NOT closed (the
// caller owns it).
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		close(e.in)
		<-e.done
		if e.pf != nil {
			e.pf.close()
		}
	})
}

// --- stage 1: unmarshal ---

func (e *Engine) parseStage(in <-chan *job, next chan<- *job) {
	defer close(next)
	for j := range in {
		t := time.Now()
		if j.b == nil {
			b, err := block.Unmarshal(j.raw)
			if err != nil {
				j.err = err
				j.skip = true
				next <- j
				continue
			}
			j.b = b
		}
		b := j.b
		j.txs = make([]validator.ParsedTx, len(b.Envelopes))
		// Fan the per-transaction payload decoding out across workers —
		// the sequential validator decodes one transaction at a time. With
		// a ParseCache, payloads any sharing path already decoded are
		// served from the interning table instead of re-walked.
		var parseHits atomic.Int64
		parallelFor(len(j.txs), e.cfg.Workers, func(i int) {
			var hit bool
			j.txs[i], hit = e.cfg.ParseCache.ParseTx(b.Envelopes[i].PayloadBytes)
			if hit {
				parseHits.Add(1)
			}
		})
		j.bd.ParseCacheHits += int(parseHits.Load())
		j.bd.Unmarshal = time.Since(t)
		// Read sets are known now: kick off the async warm-up so backend
		// misses resolve while this block is in the vscc stage.
		if e.pf != nil {
			j.warm = e.pf.start(j.txs)
		}
		next <- j
	}
}

// --- stage 2: block verification + vscc ---

func (e *Engine) verifyStage(in <-chan *job, next chan<- *job) {
	defer close(next)
	for j := range in {
		if j.skip {
			next <- j
			continue
		}
		j.res = &Result{BlockNum: j.b.Header.Number, Flags: make([]byte, len(j.txs))}

		t := time.Now()
		blockErr := validator.VerifyOrderer(j.b, e.cfg.verifyOpts(), &j.bd)
		j.bd.BlockVerify = time.Since(t)
		if blockErr != nil {
			for i := range j.res.Flags {
				j.res.Flags[i] = byte(block.InvalidOther)
			}
			j.err = fmt.Errorf("%w: %v", validator.ErrBlockInvalid, blockErr)
			j.skip = true
			next <- j
			continue
		}
		j.res.BlockValid = true

		t = time.Now()
		locals := make([]validator.Breakdown, len(j.txs))
		parallelFor(len(j.txs), e.cfg.Workers, func(i int) {
			j.res.Flags[i] = byte(validator.VSCCOne(&j.b.Envelopes[i], &j.txs[i], e.cfg.Policies, e.cfg.verifyOpts(), &locals[i]))
		})
		for i := range locals {
			j.bd.Add(locals[i])
		}
		j.bd.VerifyVSCC = time.Since(t)
		next <- j
	}
}

// --- stage 3: dependency-scheduled mvcc ---

func (e *Engine) decideStage(in <-chan *job, next chan<- *job) {
	defer close(next)
	for j := range in {
		if j.skip {
			next <- j
			continue
		}
		if j.warm != nil {
			// Residual stall only: with vscc ahead of us the warm-ups have
			// normally landed already. This is the latency the prefetch
			// failed to hide (reported so experiments can show the hiding).
			tWait := time.Now()
			j.warm.Wait()
			j.bd.PrefetchWait = time.Since(tWait)
		}
		t := time.Now()
		blockNum := j.b.Header.Number
		flags := j.res.Flags

		accs := make([]Access, len(j.txs))
		for i := range j.txs {
			if flags[i] == byte(block.Valid) {
				accs[i] = AccessOf(j.txs[i].RW)
			}
		}
		g := BuildGraph(accs)
		RunGraph(g, e.cfg.Workers, func(i int) {
			if flags[i] != byte(block.Valid) {
				return
			}
			rw := j.txs[i].RW
			for _, r := range rw.Reads {
				// An earlier valid transaction of this block wrote the key:
				// same verdict as the sequential writtenInBlock check. The
				// scheduler guarantees every such writer is already decided.
				if e.cache.WrittenBy(r.Key, blockNum, uint64(i)) {
					flags[i] = byte(block.MVCCReadConflict)
					return
				}
			}
			if !e.cache.MVCCCheck(rw.Reads, blockNum) {
				flags[i] = byte(block.MVCCReadConflict)
				return
			}
			// Decision is final: publish the writes so dependents (and the
			// next block's mvcc stage) observe them before the flush lands.
			ver := block.Version{BlockNum: blockNum, TxNum: uint64(i)}
			for _, w := range rw.Writes {
				e.cache.Put(w.Key, w.Value, ver)
			}
		})
		j.bd.MVCC = time.Since(t)
		j.b.Metadata.ValidationFlags = flags
		next <- j
	}
}

// --- stage 4: state database + ledger flush ---

func (e *Engine) flushStage(in <-chan *job) {
	defer close(e.done)
	defer close(e.out)
	for j := range in {
		if j.skip {
			if j.res != nil {
				j.bd.Total = time.Since(j.start)
				j.res.Breakdown = j.bd
			}
			e.out <- Outcome{Res: j.res, Err: j.err}
			continue
		}
		t := time.Now()
		store := e.cache.Store()
		for i := range j.txs {
			if j.res.Flags[i] != byte(block.Valid) {
				continue
			}
			ver := block.Version{BlockNum: j.b.Header.Number, TxNum: uint64(i)}
			store.WriteBatch(j.txs[i].RW.Writes, ver)
		}
		e.cache.Retire(j.b.Header.Number)
		j.bd.StateDB = j.bd.MVCC + time.Since(t)

		if !e.cfg.SkipLedger && e.led != nil {
			tLed := time.Now()
			ch, err := e.led.Commit(j.b)
			if err != nil {
				j.bd.Total = time.Since(j.start)
				e.out <- Outcome{Err: fmt.Errorf("pipeline ledger commit block %d: %w", j.b.Header.Number, err)}
				continue
			}
			j.res.CommitHash = ch
			j.bd.LedgerCommit = time.Since(tLed)
		} else {
			j.res.CommitHash = block.CommitHash(nil, j.b.Header.DataHash, j.res.Flags)
		}
		j.bd.Total = time.Since(j.start)
		j.res.Breakdown = j.bd
		e.cfg.Metrics.ObserveBlock(len(j.txs), j.bd.Unmarshal, j.bd.BlockVerify, j.bd.VerifyVSCC,
			j.bd.MVCC, j.bd.StateDB, j.bd.LedgerCommit, j.bd.PrefetchWait, j.bd.Total)
		e.out <- Outcome{Res: j.res}
	}
}

// parallelFor runs fn(0..n-1) across up to `workers` goroutines and waits.
func parallelFor(n, workers int, fn func(i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
