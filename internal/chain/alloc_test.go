package chain

import (
	"testing"

	"repro/internal/appendmem"
	"repro/internal/xrand"
)

// chainStepBudget bounds the allocations of one incremental Cached.At
// step (view grows by one message) plus a longest-tips query into a reused
// buffer, the form the honest chain rule uses. The per-suffix work —
// appending the new message to the index and refreshing the tip set —
// only grows slices amortized, which AllocsPerRun's per-run average
// truncates away: a step allocates nothing.
const chainStepBudget = 0

func TestCachedExtendStepAllocBudget(t *testing.T) {
	m := appendmem.New(8)
	rng := xrand.New(9, 9)
	var ids []appendmem.MsgID
	for i := 0; i < 1200; i++ {
		var parents []appendmem.MsgID
		if len(ids) > 0 {
			parents = append(parents, ids[rng.Intn(len(ids))])
		}
		msg := m.Writer(appendmem.NodeID(rng.Intn(8))).MustAppend(1, 0, parents)
		ids = append(ids, msg.ID)
	}

	c := NewCached()
	size := 1000
	c.At(m.ViewAt(size))

	var tips []appendmem.MsgID
	allocs := testing.AllocsPerRun(100, func() {
		size++
		tips = c.At(m.ViewAt(size)).AppendLongestTips(tips[:0])
	})
	if allocs > chainStepBudget {
		t.Fatalf("one cached extend step allocated %.1f times, budget %d", allocs, chainStepBudget)
	}
}
