package dag

import (
	"testing"

	"repro/internal/appendmem"
	"repro/internal/xrand"
)

// dagStepBudget bounds the allocations of one incremental Cached.At step
// (view grows by one message) plus a GHOST pivot query into a reused
// buffer, the form the decision rule uses. The index keeps no per-parent
// child lists, so a warm step allocates nothing: the dense slices' growth
// amortizes below one allocation per step.
const dagStepBudget = 0

func TestCachedExtendStepAllocBudget(t *testing.T) {
	m := appendmem.New(8)
	rng := xrand.New(9, 9)
	var ids []appendmem.MsgID
	for i := 0; i < 1200; i++ {
		var parents []appendmem.MsgID
		if len(ids) > 0 {
			for j := 0; j < 1+rng.Intn(2); j++ {
				parents = append(parents, ids[rng.Intn(len(ids))])
			}
		}
		msg := m.Writer(appendmem.NodeID(rng.Intn(8))).MustAppend(1, 0, parents)
		ids = append(ids, msg.ID)
	}

	c := NewCached()
	size := 1000
	pivot := c.At(m.ViewAt(size)).GhostPivot()

	allocs := testing.AllocsPerRun(100, func() {
		size++
		d := c.At(m.ViewAt(size))
		pivot = d.AppendGhostPivot(pivot[:0])
	})
	if allocs > dagStepBudget {
		t.Fatalf("one cached extend step allocated %.1f times, budget %d", allocs, dagStepBudget)
	}
}

// TestSteadyDecideAllocFree pins the decision read of an index that is
// already extended to the view — what every correct node but the first
// pays on a trial-shared index: At, the GHOST pivot, the bounded ordering
// and the tips for the next append, all into reused buffers, allocate
// nothing.
func TestSteadyDecideAllocFree(t *testing.T) {
	m := recentDagHistory(xrand.New(4, 4), 300)
	c := NewCached()
	view := m.Read()
	var pivot, tips []appendmem.MsgID
	var vals []int64
	decide := func() {
		d := c.At(view)
		pivot = d.AppendGhostPivot(pivot[:0])
		vals = d.AppendOrderedValues(vals[:0], pivot, 101)
		tips = d.AppendTips(tips[:0])
	}
	decide() // extend the index, size the buffers
	if len(vals) != 101 {
		t.Fatalf("ordering covers %d values, want 101", len(vals))
	}
	if allocs := testing.AllocsPerRun(100, decide); allocs != 0 {
		t.Fatalf("a steady-state decide allocated %.1f times, want 0", allocs)
	}
}
