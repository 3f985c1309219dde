package dag

import (
	"slices"

	"repro/internal/appendmem"
)

// linearize is the from-scratch reference ordering the memoized one is
// held against: it appends the first limit blocks of Linearize(pivot) to
// dst, walking every epoch from the first pivot block with its own marks
// and leaving the index's memo and scratch untouched.
func (d *Dag) linearize(dst, pivot []appendmem.MsgID, limit int) []appendmem.MsgID {
	start := len(dst)
	ordered := make(map[appendmem.MsgID]bool)
	for _, pb := range pivot {
		if len(dst)-start >= limit {
			break
		}
		seen := map[appendmem.MsgID]bool{pb: true}
		var epoch, stack []appendmem.MsgID
		push := func(id appendmem.MsgID) {
			for _, p := range d.parentsOf(id) {
				if p != appendmem.None && int(p) >= d.off && !ordered[p] && !seen[p] {
					seen[p] = true
					stack = append(stack, p)
				}
			}
		}
		push(pb)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			epoch = append(epoch, cur)
			push(cur)
		}
		slices.SortFunc(epoch, d.before)
		for _, id := range epoch {
			ordered[id] = true
		}
		ordered[pb] = true
		dst = append(append(dst, epoch...), pb)
	}
	if len(dst)-start > limit {
		dst = dst[:start+limit]
	}
	return dst
}
