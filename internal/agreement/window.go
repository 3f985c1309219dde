// Bounded-memory execution: windowed retirement of the append memory and
// pre-decision trial checkpoints. Both are opt-in; with the Window,
// CheckpointSink and ResumeFrom knobs at their zero values RunRandomized
// consumes randomness and schedules events in exactly the historical
// order, byte for byte.
package agreement

import (
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/appendmem"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// WindowedRule is implemented by per-node rule instances (and trial rules,
// see Recycler) that can bound and retire their reachable prefix.
// ViewFloor returns the smallest id the holder's future appends can
// reference and below which its indexes have ingested everything (min of
// the cached indexes' built sizes and tip floors and of memoized append
// parents); the harness adds the parents of the messages above it, see
// parentFloor. CompactTo retires index state below w, returning the
// watermark achieved (indexes may decline conservatively).
//
// The harness retires memory chunks only below the minimum floor over the
// trial-shared state and all appending parties, so a rule that never
// implements this simply disables windowed mode for its protocol.
type WindowedRule interface {
	ViewFloor() int
	CompactTo(w int) int
}

// WindowedAdversary is the adversary-side counterpart of WindowedRule.
type WindowedAdversary interface {
	ViewFloor() int
	CompactTo(w int)
}

// ViewFloor implements WindowedAdversary: a silent adversary never reads
// or appends, so it bounds nothing.
func (Silent) ViewFloor() int { return math.MaxInt }

// CompactTo implements WindowedAdversary.
func (Silent) CompactTo(int) {}

// ViewFloor implements WindowedAdversary by delegating to the flip rule's
// per-node instance. The adversary reads fresh and never decides, so only
// the indexes its appends touch hold a floor.
func (a *ValueFlip) ViewFloor() int {
	if wr, ok := a.rule.(WindowedRule); ok {
		return wr.ViewFloor()
	}
	return 0
}

// CompactTo implements WindowedAdversary.
func (a *ValueFlip) CompactTo(w int) {
	if wr, ok := a.rule.(WindowedRule); ok {
		wr.CompactTo(w)
	}
}

// bindWindow checks that every party that can still append exposes a
// reachability floor — otherwise no retirement bound exists — and keeps
// the floors for retire. The trial-shared state (see Recycler) has
// one when the rule shares it.
func (t *trial) bindWindow(rule, trialRule HonestRule, shared bool) error {
	if shared {
		t.winTrial, _ = trialRule.(WindowedRule)
	}
	t.winRules = runner.Resize(t.winRules, t.cfg.N)
	for i, r := range t.rules {
		if r == nil {
			continue
		}
		wr, ok := r.(WindowedRule)
		if !ok {
			return fmt.Errorf("agreement: window requires a rule with reachability floors; %T has none", rule)
		}
		t.winRules[i] = wr
	}
	if t.cfg.T > 0 {
		wa, ok := t.adv.(WindowedAdversary)
		if !ok {
			return fmt.Errorf("agreement: window requires an adversary with reachability floors; %T has none", t.adv)
		}
		t.winAdv = wa
	}
	return nil
}

// retire is the windowed-memory event, every Δ: take the minimum
// reachability floor over the trial-shared state and the parties that can
// still append (decided and dead nodes never append again), keep at least
// Window messages live, compact every index to the watermark — the shared
// one once — and retire the memory below it. It consumes no randomness.
func (t *trial) retire() {
	if t.done {
		return
	}
	mem := t.mem
	if keep := mem.Len() - t.cfg.Window; keep > mem.Watermark() {
		f := mem.Len()
		if t.winTrial != nil {
			f = min(f, t.winTrial.ViewFloor())
		}
		for i, wr := range t.winRules {
			id := appendmem.NodeID(i)
			if wr != nil && t.alive(id) && !t.outcome.Decided[id] {
				f = min(f, wr.ViewFloor())
			}
		}
		if t.winAdv != nil {
			f = min(f, t.winAdv.ViewFloor())
		}
		if w := min(keep, parentFloor(mem, f)); w > mem.Watermark() {
			if t.winTrial != nil {
				t.winTrial.CompactTo(w)
			}
			for _, wr := range t.winRules {
				if wr != nil {
					wr.CompactTo(w)
				}
			}
			if t.winAdv != nil {
				t.winAdv.CompactTo(w)
			}
			mem.Retire(w)
		}
	}
	t.sim.After(sim.Time(t.cfg.Delta), t.retireFn)
}

// parentFloor lowers f, the minimum floor over every index, to the
// smallest parent referenced by the messages from f on. Each index has
// ingested the messages below its floor, but the ones appended since it
// last extended are still to be read, parents included — and the
// appenders' own floors may have moved past those parents meanwhile.
func parentFloor(mem *appendmem.Memory, f int) int {
	if f < mem.Watermark() {
		return f
	}
	w := f
	for id := f; id < mem.Len(); id++ {
		for _, p := range mem.Message(appendmem.MsgID(id)).Parents {
			if p != appendmem.None && int(p) < w {
				w = int(p)
			}
		}
	}
	return w
}

// windowChunk sizes the fixed slab chunks of a windowed memory: an eighth
// of the window (clamped) so retirement reclaims in steps much smaller
// than the live window itself.
func windowChunk(window int) int {
	c := window / 8
	if c < 64 {
		c = 64
	}
	if c > 4096 {
		c = 4096
	}
	return c
}

// Checkpoint is a resumable snapshot of a run, captured immediately before
// the first decision commits: the cloned memory, the virtual clock, the
// authority's pending grant, and the position of every rng stream. At that
// instant no node has decided, so two runs differing only in confirmation
// depth (or any knob that can only postpone decisions) have evolved
// identically — resuming the deeper run from the shallower run's
// checkpoint replays the exact suffix a from-scratch run would produce,
// skipping the shared prefix.
//
// A Checkpoint is immutable after capture: every resume clones the memory
// again, so one checkpoint serves many sweep points, concurrently.
type Checkpoint struct {
	Mem    *appendmem.Memory
	Now    sim.Time
	Grants int

	// AuthoritySeq and AuthorityAt restart grant numbering and the pending
	// grant instant; the inter-arrival draw behind AuthorityAt was already
	// consumed, which is why the authority rng state alone is not enough.
	AuthoritySeq int
	AuthorityAt  sim.Time

	AuthorityRng xrand.State
	AdversaryRng xrand.State
	NodeRngs     []xrand.State

	CrashAt   []sim.Time
	ReadAt    []sim.Time
	ViewSizes []int
}

// capture snapshots the run just before node id's first decision commits
// and hands it to the sink. The snapshot is taken inside the deciding
// node's read event but represents the state before it fired: pre is the
// node's rng state before Decide drew from it (the resumed run replays
// the event, re-drawing those values), its pending read is still at the
// event's own instant, and no decision is recorded anywhere.
func (t *trial) capture(id appendmem.NodeID, pre xrand.State) {
	cp := &Checkpoint{
		Mem:          t.mem.Clone(),
		Now:          t.sim.Now(),
		Grants:       t.result.Grants,
		AuthoritySeq: t.auth.Issued(),
		AuthorityAt:  t.auth.NextAt(),
		AuthorityRng: t.rngAuth.State(),
		AdversaryRng: t.rngAdv.State(),
		NodeRngs:     make([]xrand.State, t.cfg.N),
		CrashAt:      append([]sim.Time(nil), t.crashAt...),
		ReadAt:       append([]sim.Time(nil), t.readAt...),
		ViewSizes:    make([]int, t.cfg.N),
	}
	for i, rng := range t.rngs {
		cp.NodeRngs[i] = rng.State()
	}
	cp.NodeRngs[id] = pre
	for i, v := range t.lastView {
		cp.ViewSizes[i] = v.Size()
	}
	t.cfg.CheckpointSink(cp)
}

// restore fast-forwards a trial to cp before anything is scheduled: every
// rng stream restarts at the draw it had reached, and the memory, clock,
// crash instants, pending reads, node views and grant count replace the
// drawn ones. The authority already holds its stream, so that one is
// overwritten in place, and it restarts at the captured grant.
func (t *trial) restore(cp *Checkpoint) {
	*t.rngAuth = *xrand.Restore(cp.AuthorityRng)
	t.rngAdv = xrand.Restore(cp.AdversaryRng)
	for i := range t.rngs {
		t.rngs[i] = xrand.Restore(cp.NodeRngs[i])
	}
	t.mem = cp.Mem.Clone()
	t.sim.StartAt(cp.Now)
	copy(t.crashAt, cp.CrashAt)
	copy(t.readAt, cp.ReadAt)
	for i := range t.lastView {
		t.lastView[i] = t.mem.ViewAt(cp.ViewSizes[i])
	}
	t.result.Grants = cp.Grants
	t.auth = resumed{t.auth, cp.AuthoritySeq, cp.AuthorityAt}
}

// resumed is an authority restored from a checkpoint: Start continues the
// captured grant stream instead of drawing a first grant.
type resumed struct {
	access.Authority
	seq int
	at  sim.Time
}

func (r resumed) Start() { r.ResumeAt(r.seq, r.at) }
