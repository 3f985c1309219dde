// Package access implements the memory-access disciplines of the paper:
//
//   - RoundClock: the synchronous setting (§1.1, §3), where every interval
//     between two local operations of a node is bounded by Δ. A round is one
//     communication step with the memory — at most one append and one read
//     per node. Nodes are *not* perfectly aligned: each node carries a fixed
//     sub-Δ jitter on its append and read instants. That residual asynchrony
//     is exactly what the Byzantine lower-bound strategy of Section 3.1
//     exploits (an append placed between two nodes' reads is seen by one
//     node this round and by the other only next round).
//
//   - PoissonAuthority: the randomized memory access of Section 5. Append
//     access requires a token handed out by an authority; each node's tokens
//     arrive as an independent Poisson process with rate λ per Δ, so the
//     aggregate token stream is Poisson with rate nλ per Δ. Reads are free
//     at any time. This is the paper's clean abstraction of proof-of-work.
//
// The implementation realizes the n independent processes as one merged
// exponential-clock process (rate nλ/Δ) whose grants are assigned to
// uniformly random nodes — a standard, exactly equivalent construction that
// additionally yields the authority's total arrival order used by the
// timestamp baseline (§5.1).
package access

import (
	"repro/internal/appendmem"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// RoundClock fixes the per-node operation instants of the synchronous
// model. Round r (1-based) occupies virtual time [(r-1)·Δ, r·Δ).
type RoundClock struct {
	Delta float64
	// appendJitter and readJitter are per-node fractions in [0,1) fixed at
	// construction; they encode the bounded asynchrony within a round.
	appendJitter []float64
	readJitter   []float64
}

// Jitter windows as fractions of Δ. Appends happen early in the round,
// reads late; the gap guarantees every correct round-r append is seen by
// every correct round-r read, while leaving room for a Byzantine append to
// land between two different nodes' reads.
const (
	appendWindow = 0.10 // appends occur in [0, 0.10)·Δ after round start
	readStart    = 0.80 // reads occur in [0.80, 0.95)·Δ after round start
	readWindow   = 0.15
)

// NewRoundClock draws fixed per-node jitters from rng and returns the clock
// for n nodes with synchrony bound delta. It panics when n <= 0 or
// delta <= 0.
func NewRoundClock(rng *xrand.PCG, n int, delta float64) *RoundClock {
	if n <= 0 || delta <= 0 {
		panic("access: invalid RoundClock parameters")
	}
	rc := &RoundClock{
		Delta:        delta,
		appendJitter: make([]float64, n),
		readJitter:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		rc.appendJitter[i] = rng.Float64()
		rc.readJitter[i] = rng.Float64()
	}
	return rc
}

// NumNodes returns the number of nodes the clock was built for.
func (rc *RoundClock) NumNodes() int { return len(rc.appendJitter) }

// RoundStart returns the start time of 1-based round r.
func (rc *RoundClock) RoundStart(r int) sim.Time {
	return sim.Time(float64(r-1) * rc.Delta)
}

// AppendTime returns when node id performs its round-r append.
func (rc *RoundClock) AppendTime(id appendmem.NodeID, r int) sim.Time {
	return rc.RoundStart(r) + sim.Time(appendWindow*rc.appendJitter[id]*rc.Delta)
}

// ReadTime returns when node id performs its round-r read. All correct
// round-r appends precede all round-r reads, but different nodes read at
// different instants — the crack a Byzantine append can slip into.
func (rc *RoundClock) ReadTime(id appendmem.NodeID, r int) sim.Time {
	return rc.RoundStart(r) + sim.Time((readStart+readWindow*rc.readJitter[id])*rc.Delta)
}

// ReadDeadline returns the latest read instant of round r across all nodes;
// an append after it is invisible in round r to everyone.
func (rc *RoundClock) ReadDeadline(r int) sim.Time {
	latest := sim.Time(0)
	for i := range rc.readJitter {
		if t := rc.ReadTime(appendmem.NodeID(i), r); t > latest {
			latest = t
		}
	}
	return latest
}

// Grant is one append-permission token.
type Grant struct {
	Node appendmem.NodeID
	At   sim.Time
	Seq  int // position in the authority's total arrival order
}

// Authority is a token authority of the randomized access model: once
// started (fresh with Start, or mid-stream from a checkpoint with
// ResumeAt) it hands out grants until Stop. Issued and NextAt expose the
// state a checkpoint must capture.
type Authority interface {
	Start()
	Stop()
	Issued() int
	NextAt() sim.Time
	ResumeAt(seq int, at sim.Time)
}

// PoissonAuthority hands out append tokens at Poisson-process instants.
type PoissonAuthority struct {
	s       *sim.Sim
	rng     *xrand.PCG
	n       int
	rate    float64   // merged rate: sum of per-node rates per unit time
	weights []float64 // per-node rates; nil means uniform
	seq     int
	handle  func(Grant)
	active  bool
	nextAt  sim.Time
	tick    func() // fire bound once, so scheduling a grant allocates nothing
}

// NewPoissonAuthority creates an authority for n nodes where each node's
// tokens arrive with rate lambda per delta time units. handle is invoked at
// each grant instant, inside the simulator. Call Start to begin issuing.
func NewPoissonAuthority(s *sim.Sim, rng *xrand.PCG, n int, lambda, delta float64, handle func(Grant)) *PoissonAuthority {
	if n <= 0 || lambda <= 0 || delta <= 0 {
		panic("access: invalid PoissonAuthority parameters")
	}
	return &PoissonAuthority{s: s, rng: rng, n: n, rate: float64(n) * lambda / delta, handle: handle}
}

// Start schedules the first grant. Grants continue until Stop (or until the
// simulator stops draining events).
func (a *PoissonAuthority) Start() {
	if a.active {
		return
	}
	a.active = true
	a.scheduleNext()
}

// Stop ceases issuing grants after any already-scheduled one fires.
func (a *PoissonAuthority) Stop() { a.active = false }

// Issued returns the number of grants handed out so far.
func (a *PoissonAuthority) Issued() int { return a.seq }

// NextAt returns the instant of the pending grant — the piece of authority
// state a run checkpoint must capture, since the inter-arrival draw behind
// it was already consumed from the rng.
func (a *PoissonAuthority) NextAt() sim.Time { return a.nextAt }

// ResumeAt restarts a fresh authority mid-stream: grant numbering
// continues from seq and the pending grant fires at absolute time at. The
// rng must be positioned exactly as at the checkpoint (the at draw is not
// re-consumed).
func (a *PoissonAuthority) ResumeAt(seq int, at sim.Time) {
	if a.active {
		return
	}
	a.active = true
	a.seq = seq
	a.nextAt = at
	if a.tick == nil {
		a.tick = a.fire
	}
	a.s.At(at, a.tick)
}

func (a *PoissonAuthority) scheduleNext() {
	if a.tick == nil {
		a.tick = a.fire
	}
	wait := sim.Time(a.rng.Exp(a.rate))
	a.nextAt = a.s.Now() + wait
	a.s.After(wait, a.tick)
}

func (a *PoissonAuthority) fire() {
	if !a.active {
		return
	}
	node := appendmem.NodeID(a.rng.Intn(a.n))
	if a.weights != nil {
		node = appendmem.NodeID(a.rng.Pick(a.weights))
	}
	g := Grant{
		Node: node,
		At:   a.s.Now(),
		Seq:  a.seq,
	}
	a.seq++
	a.handle(g)
	a.scheduleNext()
}

// RoundRobinAuthority is the burst-free counterpart of PoissonAuthority:
// grants arrive at a fixed cadence of Δ/(n·λ) and cycle deterministically
// through the nodes, so every node receives exactly λ grants per Δ with
// zero variance. Same aggregate rate as the Poisson authority, none of
// its burstiness — the ablation that separates which of the paper's
// Section 5 effects need Poisson clumping (Lemma 5.5's private bursts)
// from those that only need the rate (Theorem 5.4's staleness forks).
type RoundRobinAuthority struct {
	s      *sim.Sim
	n      int
	gap    sim.Time
	seq    int
	handle func(Grant)
	active bool
	nextAt sim.Time
	tick   func() // fire bound once, so scheduling a grant allocates nothing
}

// NewRoundRobinAuthority creates the deterministic authority with the
// same (n, lambda, delta) semantics as NewPoissonAuthority.
func NewRoundRobinAuthority(s *sim.Sim, n int, lambda, delta float64, handle func(Grant)) *RoundRobinAuthority {
	if n <= 0 || lambda <= 0 || delta <= 0 {
		panic("access: invalid RoundRobinAuthority parameters")
	}
	return &RoundRobinAuthority{s: s, n: n, gap: sim.Time(delta / (lambda * float64(n))), handle: handle}
}

// Start schedules the first grant.
func (a *RoundRobinAuthority) Start() {
	if a.active {
		return
	}
	a.active = true
	a.scheduleNext()
}

// Stop ceases issuing grants.
func (a *RoundRobinAuthority) Stop() { a.active = false }

// Issued returns the number of grants handed out so far.
func (a *RoundRobinAuthority) Issued() int { return a.seq }

// NextAt returns the instant of the pending grant (see PoissonAuthority).
func (a *RoundRobinAuthority) NextAt() sim.Time { return a.nextAt }

// ResumeAt restarts a fresh authority mid-stream (see PoissonAuthority).
func (a *RoundRobinAuthority) ResumeAt(seq int, at sim.Time) {
	if a.active {
		return
	}
	a.active = true
	a.seq = seq
	a.nextAt = at
	if a.tick == nil {
		a.tick = a.fire
	}
	a.s.At(at, a.tick)
}

func (a *RoundRobinAuthority) scheduleNext() {
	if a.tick == nil {
		a.tick = a.fire
	}
	a.nextAt = a.s.Now() + a.gap
	a.s.After(a.gap, a.tick)
}

func (a *RoundRobinAuthority) fire() {
	if !a.active {
		return
	}
	g := Grant{
		Node: appendmem.NodeID(a.seq % a.n),
		At:   a.s.Now(),
		Seq:  a.seq,
	}
	a.seq++
	a.handle(g)
	a.scheduleNext()
}

// NewWeightedPoissonAuthority generalizes NewPoissonAuthority to
// heterogeneous access rates: rates[i] is node i's token rate per delta
// time units (its "hashing power" in the proof-of-work reading). The
// merged process has rate sum(rates)/delta and each grant goes to node i
// with probability rates[i]/sum — the standard decomposition of
// independent Poisson processes. With equal rates this is exactly
// NewPoissonAuthority.
func NewWeightedPoissonAuthority(s *sim.Sim, rng *xrand.PCG, rates []float64, delta float64, handle func(Grant)) *PoissonAuthority {
	if len(rates) == 0 || delta <= 0 {
		panic("access: invalid weighted authority parameters")
	}
	total := 0.0
	for _, r := range rates {
		if r <= 0 {
			panic("access: non-positive per-node rate")
		}
		total += r
	}
	a := &PoissonAuthority{
		s: s, rng: rng, n: len(rates),
		rate:    total / delta,
		weights: append([]float64(nil), rates...),
		handle:  handle,
	}
	return a
}
