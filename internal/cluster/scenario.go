package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"bmac/internal/chaos"
	"bmac/internal/delivery"
)

// A scenario is one fault layered on a cluster run: churn (optionally
// with bit-rot while the victim is down), partition, leader kill, wire
// corruption or slow disk. It strikes at most one software peer, its
// victim, whose delivery pipe wire may rewire before it registers. Its
// phase goes armed → struck → healed (run.step); once the run is over
// every step is due, so even a tiny run plays the strike and the
// recovery through.
type scenario interface {
	victim() int // index of the struck software peer, -1 for none
	wire(r *run, po *delivery.PeerOptions)
	// step runs the action that ends phase p — the strike while armed,
	// the heal once struck — if it is due, or regardless once the run is
	// over. It reports whether the action took; false retries next tick.
	step(r *run, p phase, runOver bool) (bool, error)
	report(r *run, res *Result)
}

type phase int

const (
	armed phase = iota
	struck
	healed
)

// newScenario validates the scenario options and builds the selected
// scenario (nil for none). A peer-level scenario strikes the last fast
// peer; the observer (peer 0) never is the victim.
func newScenario(opts Options) (scenario, error) {
	fast := opts.Peers - opts.SlowPeers
	if opts.Churn && fast < 2 {
		return nil, fmt.Errorf("cluster: churn needs at least 2 fast peers (have %d peers, %d slow)",
			opts.Peers, opts.SlowPeers)
	}
	if opts.ChurnCorrupt && !opts.Churn {
		return nil, errors.New("cluster: ChurnCorrupt requires Churn (corruption strikes while the victim is down)")
	}
	fault, err := chaos.ParseFault(opts.Fault)
	if err != nil {
		return nil, err
	}
	if fault != "" && opts.Churn {
		return nil, errors.New("cluster: Churn and Fault are mutually exclusive scenarios")
	}
	pf := peerFault{fault: fault, idx: fast - 1}
	tm := timed{after: opts.FaultAfter}
	switch {
	case fault == "" && opts.Churn:
		return &churn{peerFault: pf, after: opts.ChurnAfter, corrupt: opts.ChurnCorrupt}, nil
	case fault == "":
		return nil, nil
	case fault == chaos.FaultLeaderKill:
		if opts.RaftNodes < 3 {
			return nil, fmt.Errorf("cluster: the %s fault needs RaftNodes >= 3 to re-elect (have %d)",
				fault, opts.RaftNodes)
		}
		return &leaderKill{timed: tm, newLeader: -1}, nil
	case fast < 2:
		return nil, fmt.Errorf("cluster: the %s fault needs at least 2 fast peers (have %d peers, %d slow)",
			fault, opts.Peers, opts.SlowPeers)
	case fault == chaos.FaultPartition:
		return &partition{peerFault: pf, timed: tm}, nil
	case fault == chaos.FaultCorruption:
		return &corruption{peerFault: pf}, nil
	}
	return &slowDisk{peerFault: pf, disk: &chaos.DiskFault{Latency: time.Millisecond, FailEvery: 3}}, nil
}

// step moves the scenario on by at most one phase.
func (r *run) step(runOver bool) error {
	if r.phase == healed {
		return nil
	}
	ok, err := r.scn.step(r, r.phase, runOver)
	if ok {
		r.phase++
	}
	return err
}

// pastWindow reports whether delivery has moved past the retained window
// beyond height h, so a peer stalled at h must catch up from the ledger.
func (r *run) pastWindow(h uint64) bool {
	return r.svc.Height() >= h+uint64(r.svc.Window())+2
}

// diskFault is the slow-disk shim for software peer i: non-nil only for
// the slow-disk victim, whose ledger and checkpoint writers it wraps.
func diskFault(s scenario, i int) *chaos.DiskFault {
	if f, ok := s.(*slowDisk); ok && i == f.idx {
		return f.disk
	}
	return nil
}

// peerFault is the part shared by the scenarios that strike a peer.
type peerFault struct {
	fault string
	idx   int
}

func (f peerFault) victim() int { return f.idx }

// chaosReport starts the fault's report with the victim and the write faults
// its ledger absorbed by retry.
func (f peerFault) chaosReport(r *run) *ChaosReport {
	v := r.peers[f.idx]
	return &ChaosReport{Fault: f.fault, Victim: v.name, LedgerRetries: v.led.FaultRetries()}
}

// timed is the part shared by the faults that strike once delivery
// clears `after` blocks, recording the delivery heights of strike and heal.
type timed struct {
	after              int
	struckAt, healedAt uint64
}

// churn kills the victim once it has committed `after` blocks and holds
// it down until its delivery cursor has fallen off the retained window,
// so the restart (checkpoint + ledger replay, then the pipe rewound to
// the recovered height) must stream from the orderer's ledger. With
// corrupt, its oldest sealed segment rots while it is down.
type churn struct {
	peerFault
	after         int
	corrupt       bool
	killHeight    uint64
	recoveredAt   uint64
	corruptedFile string
}

// wire gives the pipe a redial budget that outlasts the downtime.
func (c *churn) wire(_ *run, po *delivery.PeerOptions) {
	po.MaxRedials = 4000
	po.RedialWait = 5 * time.Millisecond
}

func (c *churn) step(r *run, p phase, runOver bool) (bool, error) {
	if p == armed {
		return c.kill(r, runOver)
	}
	return c.restart(r, runOver)
}

func (c *churn) kill(r *run, runOver bool) (bool, error) {
	p := r.peers[c.idx]
	p.mu.Lock()
	blocks := p.blocks
	p.mu.Unlock()
	if blocks < c.after && !runOver {
		return false, nil
	}
	p.ln.Close() // bmaclint:allow errdiscard (teardown: listener close error is unactionable)
	<-p.done     // the commit loop drains its intake, then exits
	c.killHeight = p.led.Height()
	if err := p.node.Close(); err != nil {
		return false, fmt.Errorf("cluster: churn kill %s: %w", p.name, err)
	}
	// The restart's open-time checksum sweep quarantines the rotted file,
	// and the rewind in restart streams the lost range back through delivery.
	if c.corrupt {
		f, err := chaos.CorruptSealedSegment(p.dir)
		if err != nil {
			return false, fmt.Errorf("cluster: churn corrupt %s: %w", p.name, err)
		}
		c.corruptedFile = filepath.Base(f)
	}
	return true, nil
}

func (c *churn) restart(r *run, runOver bool) (bool, error) {
	if !runOver && !r.pastWindow(c.killHeight) {
		return false, nil
	}
	p := r.peers[c.idx]
	if err := p.open(r.cfg, r.opts.Mode, nil); err != nil {
		return false, fmt.Errorf("cluster: churn restart %s: %w", p.name, err)
	}
	c.recoveredAt = p.next
	p.mu.Lock()
	p.restarts++
	p.mu.Unlock()
	// The deliver protocol's catch-up request: resume this peer's pipe from
	// the height it recovered to — or from the first quarantined hole below
	// it, so the redelivered range doubles as the archive refetch that
	// Restore backfills. Rewind MUST land before the new address is
	// published — a pipe that reconnected first would deliver from its
	// stale pre-kill cursor, the recovered peer would see a gap and stop
	// committing, and a racing send could clobber the moved cursor.
	rewindTo := p.next
	if mr := p.led.MissingRanges(); len(mr) > 0 && mr[0].First < rewindTo {
		rewindTo = mr[0].First
	}
	if err := r.svc.Rewind(p.name, rewindTo); err != nil {
		return false, fmt.Errorf("cluster: churn restart %s: %w", p.name, err)
	}
	p.addr.Store(p.ln.Addr())
	p.start(r, false)
	return true, nil
}

func (c *churn) report(_ *run, res *Result) {
	pr := res.Peers[c.idx]
	res.Churn = &ChurnReport{
		Peer:           pr.Name,
		KillHeight:     c.killHeight,
		RecoveredAt:    c.recoveredAt,
		CaughtUp:       pr.Delivery.CaughtUp,
		Restarts:       pr.Restarts,
		CorruptedFile:  c.corruptedFile,
		Quarantined:    pr.Ledger.Quarantined,
		RestoredBlocks: pr.Ledger.RestoredBlocks,
	}
}

// partition severs the victim's link and holds it severed until the
// victim has fallen more than the retained window behind, so the heal
// exercises redial + ledger catch-up rather than a plain reconnect.
type partition struct {
	peerFault
	timed
	sw *chaos.Switch
}

// wire routes the link through a severable switch. While severed, sends
// and redials fail; the exponential backoff cap keeps the pipe from
// spinning hot against the dead link, and the long budget keeps it alive
// until the heal.
func (f *partition) wire(r *run, po *delivery.PeerOptions) {
	f.sw = &chaos.Switch{}
	po.MaxRedials = 4000
	po.RedialWait = 5 * time.Millisecond
	po.Dial = chaos.SeverableDialer(po.Dial, f.sw)
	r.reg.GaugeFunc("chaos_partition_heals_total", f.sw.Heals)
}

func (f *partition) step(r *run, p phase, runOver bool) (bool, error) {
	if p == armed {
		if !runOver && r.svc.Height() < uint64(f.after) {
			return false, nil
		}
		f.struckAt = r.svc.Height()
		f.sw.Sever()
		return true, nil
	}
	if !runOver && !r.pastWindow(f.struckAt) {
		return false, nil
	}
	f.sw.Heal()
	f.healedAt = r.svc.Height()
	return true, nil
}

func (f *partition) report(r *run, res *Result) {
	cr := f.chaosReport(r)
	cr.StruckAt, cr.HealedAt, cr.Heals = f.struckAt, f.healedAt, f.sw.Heals()
	res.Chaos = cr
}

// leaderKill stops the raft node the orderer is bound to, then polls the
// re-election and rebinds the orderer to the new leader (re-proposing
// cut-but-unapplied batches exactly once).
type leaderKill struct {
	timed
	newLeader int
}

func (*leaderKill) victim() int                      { return -1 }
func (*leaderKill) wire(*run, *delivery.PeerOptions) {}

// step polls the election with a short timeout once struck, so the wait
// loop keeps servicing its other checks; until the rebind lands the
// orderer's cut path parks batches as pending (ErrNotLeader is swallowed
// as a transient) and the timer keeps retrying.
func (f *leaderKill) step(r *run, p phase, runOver bool) (bool, error) {
	if p == armed {
		if !runOver && r.svc.Height() < uint64(f.after) {
			return false, nil
		}
		f.struckAt = r.svc.Height()
		r.top.Raft.Nodes[r.top.Leader].Stop()
		return true, nil
	}
	nl, err := chaos.WaitForNewLeader(r.top.Raft, r.top.Leader, 10*time.Millisecond)
	if err != nil {
		return false, nil // election still in progress; retry next tick
	}
	if err := r.top.Orderer.Rebind(nl); err != nil {
		return false, nil // the new leader is still settling; retry next tick
	}
	f.newLeader = slices.Index(r.top.Raft.Nodes, nl)
	f.healedAt = r.svc.Height()
	return true, nil
}

func (f *leaderKill) report(r *run, res *Result) {
	res.Chaos = &ChaosReport{
		Fault:      chaos.FaultLeaderKill,
		Victim:     fmt.Sprintf("raft%d", r.top.Leader),
		StruckAt:   f.struckAt,
		HealedAt:   f.healedAt,
		KilledNode: r.top.Leader,
		NewLeader:  f.newLeader,
	}
}

// corruption bit-flips every Nth frame to the victim; the receiver's
// decode rejection closes the connection, and the peer self-heals through
// the gap -> rewind path.
type corruption struct {
	peerFault
	c *chaos.Corrupter
}

func (*corruption) step(*run, phase, bool) (bool, error) { return true, nil }

func (f *corruption) wire(r *run, po *delivery.PeerOptions) {
	f.c = chaos.NewCorrupter(7)
	po.MaxRedials = 4000
	po.RedialWait = 2 * time.Millisecond
	po.Dial = f.c.Dialer(r.peers[f.idx].addr.Load().(string))
	r.reg.GaugeFunc("chaos_corrupted_frames_total", func() int64 { _, n := f.c.Stats(); return n })
}

func (f *corruption) report(r *run, res *Result) {
	cr := f.chaosReport(r)
	_, cr.CorruptedFrames = f.c.Stats()
	res.Chaos = cr
}

// slowDisk adds write latency and transient errors under the victim's
// ledger and checkpoint writers (see diskFault) for the whole run.
type slowDisk struct {
	peerFault
	disk *chaos.DiskFault
}

func (*slowDisk) step(*run, phase, bool) (bool, error) { return true, nil }

func (f *slowDisk) wire(r *run, _ *delivery.PeerOptions) {
	r.reg.GaugeFunc("chaos_disk_fault_retries_total", func() int64 { _, n := f.disk.Stats(); return n })
}

func (f *slowDisk) report(r *run, res *Result) {
	cr := f.chaosReport(r)
	cr.DiskWrites, cr.DiskFaults = f.disk.Stats()
	res.Chaos = cr
}
