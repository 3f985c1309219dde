// Package dagba implements Algorithm 6 of the paper: Byzantine agreement
// on the DAG. An honest node, when granted memory access, appends its input
// value referencing *all* tips of its current (up to Δ stale) view — the
// inclusive strategy (Algorithm 6 Lines 5–6) — with the pivot-rule tip as
// selected parent. Once the ordering induced by the pivot chain covers at
// least k values, the node orders the DAG with respect to the pivot chain
// (Line 9) and decides on the sign of the sum of the first k values in the
// ordering (Line 10).
//
// The pivot rule is either GHOST (heaviest subtree, Sompolinsky–Zohar) or
// the longest selected-parent chain (Conflux). Theorem 5.6: validity,
// termination and agreement hold w.h.p. with resilience independent of the
// access rate λ and close to the optimal t < n/2.
package dagba

import (
	"math"
	"slices"

	"repro/internal/agreement"
	"repro/internal/appendmem"
	"repro/internal/dag"
	"repro/internal/node"
	"repro/internal/xrand"
)

// PivotRule selects how the pivot chain is chosen.
type PivotRule int

// Pivot rules.
const (
	Ghost   PivotRule = iota // heaviest selected-parent subtree
	Longest                  // longest selected-parent chain
)

func (p PivotRule) String() string {
	if p == Ghost {
		return "ghost"
	}
	return "longest"
}

// AppendPivot appends the pivot chain of d under rule p, oldest first, to
// dst and returns the extended slice; it allocates nothing when dst has
// room.
func (p PivotRule) AppendPivot(dst []appendmem.MsgID, d *dag.Dag) []appendmem.MsgID {
	if p == Ghost {
		return d.AppendGhostPivot(dst)
	}
	return d.AppendLongestPivot(dst)
}

// Rule is the honest-node behaviour of Algorithm 6. It implements
// agreement.HonestRule.
//
// Confirm is an extension beyond the paper's Algorithm 6: confirmation
// depth. With Confirm = c > 0 a node decides on the first k ordered values
// only once the ordering covers k+c values, making late insertion into the
// decision prefix (Lemma 5.5's attack) land beyond position k.
//
// The zero value is stateless and rebuilds the DAG index on every call.
// The agreement harness instead splits it once per trial (one decision
// index shared by every correct node, since all of them read the same
// memory) and then per node (the node's memoized append parents, plus its
// own index for views the shared one cannot extend); see agreement.Split.
// Without the trial step each node's decision index is its own. Behaviour
// is identical either way. Trial and node instances recycle
// (agreement.Recycler): a pooled trial slot hands its last trial's
// instances back, and the new ones keep their indexes' and buffers'
// capacity.
type Rule struct {
	Pivot   PivotRule
	Confirm int

	split agreement.Split[*dag.Dag, *memo]
}

// memo memoizes the append parents of view, the view of the node's last
// Decide or Append: on the default path a node appends on the view it
// last decided on, so the append touches no index. pivot and vals are
// reused buffers.
type memo struct {
	view    appendmem.View
	parents []appendmem.MsgID
	pivot   []appendmem.MsgID
	vals    []int64
}

func newMemo() *memo { return &memo{} }

// Clear implements agreement.Memo.
func (m *memo) Clear() {
	m.view = appendmem.View{}
	m.parents, m.pivot, m.vals = m.parents[:0], m.pivot[:0], m.vals[:0]
}

// Floor implements agreement.Memo: the smallest memoized parent.
func (m *memo) Floor() int {
	f := math.MaxInt
	for _, p := range m.parents {
		f = min(f, int(p))
	}
	return f
}

// NewNodeRule implements agreement.PerNodeState.
func (r Rule) NewNodeRule() agreement.HonestRule { return r.NewNodeRuleFrom(nil) }

// NewTrialRuleFrom implements agreement.Recycler.
func (r Rule) NewTrialRuleFrom(spare agreement.HonestRule) agreement.HonestRule {
	old, _ := spare.(Rule)
	r.split = r.split.Trial(old.split, dag.Build)
	return r
}

// NewNodeRuleFrom implements agreement.Recycler.
func (r Rule) NewNodeRuleFrom(spare agreement.HonestRule) agreement.HonestRule {
	old, _ := spare.(Rule)
	r.split = r.split.Node(old.split, dag.Build, newMemo)
	return r
}

// Release implements agreement.Recycler.
func (r Rule) Release() { r.split.Release() }

// ViewFloor implements agreement.WindowedRule.
func (r Rule) ViewFloor() int { return r.split.ViewFloor() }

// CompactTo implements agreement.WindowedRule.
func (r Rule) CompactTo(w int) int { return r.split.CompactTo(w) }

// memoize records the append parents of view, given its index d and the
// pivot in m.pivot: every tip, the pivot tip (the selected parent) first.
func (m *memo) memoize(view appendmem.View, d *dag.Dag) {
	m.view = view
	m.parents = d.AppendTips(m.parents[:0])
	if len(m.parents) == 0 {
		return
	}
	pt := m.pivot[len(m.pivot)-1]
	i := slices.Index(m.parents, pt)
	if i < 0 { // the pivot tip has a non-selected child: not a tip itself
		i = len(m.parents)
		m.parents = append(m.parents, pt)
	}
	copy(m.parents[1:i+1], m.parents[:i])
	m.parents[0] = pt
}

// Append references all tips of the node's view, pivot tip first (the
// selected parent), and carries the node's input value.
func (r Rule) Append(view appendmem.View, w *appendmem.Writer, input int64, _ *xrand.PCG) {
	st := r.split.State(dag.Build, newMemo)
	m := st.Memo
	if view != m.view {
		if view.Empty() {
			m.view, m.parents = view, m.parents[:0]
		} else {
			d := st.At(view)
			m.pivot = r.Pivot.AppendPivot(m.pivot[:0], d)
			m.memoize(view, d)
		}
	}
	w.MustAppend(input, 0, m.parents)
}

// Decide fires once the pivot-chain ordering covers at least k values and
// returns the sign of the sum of the first k ordered values.
func (r Rule) Decide(view appendmem.View, k int, _ *xrand.PCG) (int64, bool) {
	st := r.split.State(dag.Build, newMemo)
	m := st.Memo
	d := st.At(view)
	m.pivot = r.Pivot.AppendPivot(m.pivot[:0], d)
	m.memoize(view, d)
	m.vals = d.AppendOrderedValues(m.vals[:0], m.pivot, k+r.Confirm)
	if len(m.vals) < k+r.Confirm {
		return 0, false
	}
	return node.SumSign(m.vals[:k]), true
}
