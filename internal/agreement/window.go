// Bounded-memory execution: windowed retirement of the append memory and
// pre-decision trial checkpoints. Both are opt-in; with the Window,
// CheckpointSink and ResumeFrom knobs at their zero values RunRandomized
// consumes randomness and schedules events in exactly the historical
// order, byte for byte.
package agreement

import (
	"math"

	"repro/internal/appendmem"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// WindowedRule is implemented by per-node rule instances (and trial rules,
// see PerTrialState) that can bound and retire their reachable prefix.
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
