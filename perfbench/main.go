// Command perfbench is the repository benchmark. It drives the program
// only through its public functions and measures, per workload, the three
// validation paths replaying a seeded chain (sequential SWPeer, pipelined
// ParallelPeer, BMacPeer over bmacproto packets) and a durable peer's
// recovery. Every output is checked against the chain's reference; a
// mismatch exits 1. The end-to-end times are the process's CPU time (see
// cpuTime).
//
//	perfbench --workload replay-cold --seed 1 --seconds 40 --trace 0
//
// The workload cluster-open instead repeats open-loop cluster runs
// (cluster.Run, behind bmac.RunCluster); see clusterWorkload.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run records a span around each
// public call it makes and reports the per-layer metrics, each layer's
// self time and the tracing overhead instead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"bmac/internal/config"
)

// buildDir holds everything a run writes, relative to the working
// directory.
const buildDir = ".bench_build"

// workload is one chain shape; each run also carries the recover phase.
type workload struct {
	chain chainSpec
	// warm fills one shared set of verification caches per chain with an
	// untimed pass before timing; otherwise every path starts cold.
	warm bool
}

var workloads = map[string]workload{
	// Fig. 11 throughput setting: uniform over an account space that fits
	// the BMac peer's 8192-entry hardware database (2 keys per account),
	// caches cold on every path, so ECDSA dominates.
	"replay-cold": {chain: chainSpec{Accounts: 4000, Blocks: 40, BlockTxs: 50, CheckpointEvery: 15, SegmentBytes: 1 << 20}},
	// Zipf-skewed hot accounts, so many transactions conflict inside a
	// block; the chain fits the default 16384-entry signature cache, which
	// an untimed pass fills, so crypto drops out of the software paths.
	"replay-hot": {chain: chainSpec{Accounts: 1000, Skew: 1.3, Blocks: 40, BlockTxs: 50, CheckpointEvery: 15, SegmentBytes: 1 << 20}, warm: true},
}

const (
	// chainsPerRun chains are built per run: set-up time is their median,
	// and replay passes and recoveries rotate over them.
	chainsPerRun = 3
	// minBlockSamples gives the block p95 at least 10 samples beyond it.
	minBlockSamples = 200
	// rounds of replay and recovery make up the measured phase; replay
	// gets replayShare of --seconds and recovery the rest.
	rounds      = 5
	replayShare = 0.8
	minRecovers = 3 * chainsPerRun
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: replay-cold, replay-hot or "+clusterWorkload)
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 40, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if (!ok && *name != clusterWorkload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload replay-cold|replay-hot|%s, --seconds >= 1, --trace 0|1\n", clusterWorkload)
		return 2
	}
	b := &bench{name: *name, w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, out: stdout}
	if *trace == 1 {
		b.tr = newTracer()
	}
	res, err := b.run()
	if err != nil && !errors.Is(err, errMismatch) {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.Correct = err == nil
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run.
type bench struct {
	name    string
	w       workload
	seed    int64
	budget  time.Duration
	tr      *tracer
	out     io.Writer
	scratch string

	chains []*chain
	caches []*config.Config // per chain, when the workload is warm
	build  []time.Duration  // wall time of each chain set-up
	cpu    []time.Duration  // process CPU time of the same set-ups
	bs     buildStats

	ps       map[string]*pathStats
	spent    map[string]time.Duration // replay time per path
	passes   map[string]int           // replay passes per path
	clusters []clusterRun
	rs       recoverStats
	ls       layerStats
	// Busy time of the same replay passes with tracing off and on (traced
	// run only).
	untraced, traced time.Duration

	metrics map[string]metric
}

// subSeed derives the seed of one input of a run from the workload seed.
func subSeed(seed int64, phase, k int) int64 { return seed*1000 + int64(phase*100+k) }

func (b *bench) run() (*result, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch) // scratch space; removal is best effort
	b.scratch = scratch
	b.ps = map[string]*pathStats{pathSeq: {}, pathPar: {}, pathBMac: {}}
	b.spent, b.passes = make(map[string]time.Duration), make(map[string]int)
	b.metrics = make(map[string]metric)
	heap := startHeapSampler(5 * time.Millisecond)
	fmt.Fprintf(b.out, "env cpus=%d gomaxprocs=%d go=%s workload=%s seed=%d seconds=%v traced=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), b.name, b.seed, b.budget.Seconds(), b.tr != nil)

	var phaseErr error
	if b.name == clusterWorkload {
		phaseErr = b.clusterOpen()
	} else {
		phaseErr = b.setup()
		if phaseErr == nil {
			phaseErr = b.measure()
		}
		if phaseErr == nil && b.tr != nil {
			phaseErr = b.sideLayers()
		}
	}
	peak := heap.peakMB()
	attempted, failed := b.failures()
	if phaseErr != nil {
		return &result{Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]metric{}}, phaseErr
	}
	switch {
	case b.name == clusterWorkload:
		err = b.clusterMetrics(attempted, failed)
	case b.tr == nil:
		err = b.endToEnd(peak)
	default:
		err = b.perLayer()
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b.out, "metric %-32s %14.4f %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	return &result{Attempted: attempted, Failed: failed, Metrics: b.metrics}, nil
}

func (b *bench) put(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// setup builds the run's chains through client -> endorser -> orderer
// and, for a warm workload, fills each chain's shared caches.
func (b *bench) setup() error {
	for i := 0; i < chainsPerRun; i++ {
		runtime.GC()
		c0, t := cpuTime(), time.Now()
		c, err := buildChain(b.w.chain, subSeed(b.seed, 1, i), filepath.Join(b.scratch, fmt.Sprintf("chain%d", i)), b.tr, &b.bs)
		if err != nil {
			return err
		}
		if b.w.warm {
			cc := config.Default()
			if err := replaySW(pathSeq, c, cc, filepath.Join(b.scratch, "warm"), &pathStats{}, nil); err != nil {
				return fmt.Errorf("warm pass: %w", err)
			}
			b.caches = append(b.caches, cc)
		}
		b.build = append(b.build, time.Since(t))
		b.cpu = append(b.cpu, cpuTime()-c0)
		b.chains = append(b.chains, c)
		fmt.Fprintf(b.out, "chain %d: %d blocks x %d txs, valid share %.4f, intra-block conflict share %.4f, set-up %.3fs (%.3f CPU-s)\n",
			i, len(c.frames), c.spec.BlockTxs, c.validShare(), c.conflictShare(), b.build[i].Seconds(), b.cpu[i].Seconds())
	}
	return nil
}

// cachesFor returns the validator caches of one replay of chain i.
func (b *bench) cachesFor(i int) *config.Config {
	if b.w.warm {
		return b.caches[i]
	}
	return config.Default()
}

func (b *bench) replayPath(path string, i int, ps *pathStats, tr *tracer) error {
	dir := filepath.Join(b.scratch, "replay-"+path)
	if path == pathBMac {
		return replayBMac(b.chains[i], dir, ps, tr)
	}
	return replaySW(path, b.chains[i], b.cachesFor(i), dir, ps, tr)
}

// measure interleaves the two measured phases in rounds, so that each
// phase samples the whole run rather than one stretch of it: on a shared
// host the CPU a process gets drifts over tens of seconds.
func (b *bench) measure() error {
	replayRound := time.Duration(replayShare * float64(b.budget) / float64(rounds*len(paths)))
	recoverRound := time.Duration((1 - replayShare) * float64(b.budget) / float64(rounds))
	minPasses := (minBlockSamples + b.w.chain.Blocks - 1) / b.w.chain.Blocks
	for k := 0; k < rounds; k++ {
		if err := b.replay(replayRound*time.Duration(k+1), 0); err != nil {
			return err
		}
		if err := b.recover(time.Now().Add(recoverRound), 0); err != nil {
			return err
		}
	}
	// Top up to the minimum sample counts.
	if err := b.replay(0, minPasses); err != nil {
		return err
	}
	if err := b.recover(time.Time{}, minRecovers); err != nil {
		return err
	}
	for _, path := range paths {
		ps := b.ps[path]
		p, _ := tailPercentile(len(ps.lat), 10, 50, 90, 95, 99, 99.9)
		fmt.Fprintf(b.out, "replay %-4s %6d blocks %7d txs %8.1f tx/s %7.1f CPU-us/tx; highest percentile with >= 10 samples beyond: p%v\n",
			path, ps.blocks, ps.txs, float64(ps.txs)/ps.busy().Seconds(), perUnit(sum(ps.cpu), ps.txs, time.Microsecond), p)
	}
	fmt.Fprintf(b.out, "recover: %d restarts, median %.2fms, %d blocks replayed past the newest checkpoint\n",
		len(b.rs.times), median(millis(b.rs.times)), b.rs.replayed[0])
	return nil
}

// replay feeds the chains to fresh peers of each path, one pass (one
// chain through one path) at a time, round-robin over the paths, until
// every path has spent share replaying and made minPasses passes. A forced
// collection before every pass starts each at the same point of the GC
// cycle, so the collections a pass pays for do not depend on what ran
// before it.
func (b *bench) replay(share time.Duration, minPasses int) error {
	for more := true; more; {
		more = false
		for _, path := range paths {
			if b.passes[path] >= minPasses && b.spent[path] >= share {
				continue
			}
			more = true
			t := time.Now()
			if err := b.replayPass(path, b.passes[path]%len(b.chains)); err != nil {
				return err
			}
			b.spent[path] += time.Since(t)
			b.passes[path]++
		}
	}
	return nil
}

// replayPass replays chain i through one path.
func (b *bench) replayPass(path string, i int) error {
	ps := b.ps[path]
	if b.tr == nil {
		runtime.GC()
		return b.replayPath(path, i, ps, nil)
	}
	// The traced run repeats the pass untraced first, for the tracing
	// overhead.
	var u pathStats
	runtime.GC()
	if err := b.replayPath(path, i, &u, nil); err != nil {
		return err
	}
	before := ps.busy()
	runtime.GC()
	if err := b.replayPath(path, i, ps, b.tr); err != nil {
		return err
	}
	b.untraced += u.busy()
	b.traced += ps.busy() - before
	return nil
}

// recover restarts durable peers over the chains' reference directories
// until the deadline and at least minCount restarts in all.
func (b *bench) recover(deadline time.Time, minCount int) error {
	runtime.GC()
	for len(b.rs.times) < minCount || time.Now().Before(deadline) {
		if err := recoverOnce(b.chains[len(b.rs.times)%len(b.chains)], &b.rs, b.tr); err != nil {
			return err
		}
	}
	return nil
}

// sideLayers times single layers from outside: storage calls on every
// chain's reference directory, the rest on the first chain.
func (b *bench) sideLayers() error {
	for _, c := range b.chains {
		if err := measureStorage(c, b.scratch, &b.rs, b.tr); err != nil {
			return err
		}
	}
	return measureLayers(b.chains[0], b.scratch, subSeed(b.seed, 3, 0), &b.ls, b.tr)
}

// failures counts attempted and failed transactions: every replayed
// transaction of every path, or every transaction a cluster run was asked
// to carry. Replay errors end the run, so failures come from the cluster:
// aborted load clients, transactions the observer never committed, and
// missing BMac results.
func (b *bench) failures() (attempted, failed int) {
	var aborted, uncommitted, missing int
	for _, ps := range b.ps {
		attempted += ps.txs
	}
	for _, r := range b.clusters {
		attempted += r.requested
		a, u, m := r.failures()
		aborted, uncommitted, missing = aborted+a, uncommitted+u, missing+m
	}
	failed = aborted + uncommitted + missing
	fmt.Fprintf(b.out, "failures: attempted %d, failed %d (aborted %d, uncommitted %d, missing bmac %d), tx_failed_ratio %.6f\n",
		attempted, failed, aborted, uncommitted, missing, failedRatio(failed, attempted))
	return attempted, failed
}

// endToEnd computes the untraced run's metrics. Times are CPU time of the
// process (see cpuTime); their wall-clock counterparts are per-layer
// metrics of the traced run.
func (b *bench) endToEnd(heapMB float64) error {
	b.put("setup_s", median(millis(b.cpu))/1000, "s")
	b.put("heap_peak_mb", heapMB, "MB")
	for _, path := range paths {
		ps := b.ps[path]
		b.put(path+".cpu_us_per_tx", perUnit(sum(ps.cpu), ps.txs, time.Microsecond), "us")
		b.put(path+".block_cpu_p50_ms", percentile(millis(ps.cpu), 50), "ms")
	}
	b.put("recover.cpu_ms", median(millis(b.rs.cpu)), "ms")
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
