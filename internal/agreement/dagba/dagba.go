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

// Pivot returns the pivot chain of d under rule p, oldest first.
func (p PivotRule) Pivot(d *dag.Dag) []appendmem.MsgID {
	return p.appendPivot(nil, d)
}

// appendPivot appends the pivot chain of d under rule p to dst.
func (p PivotRule) appendPivot(dst []appendmem.MsgID, d *dag.Dag) []appendmem.MsgID {
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
// The agreement harness instead splits it once per trial (NewTrialRule:
// one decision index shared by every correct node, since all of them read
// the same memory) and then per node (NewNodeRule: the node's memoized
// append parents, plus its own index for views the shared one cannot
// extend). Without the trial step each node's decision index is its own.
// Behaviour is identical either way.
type Rule struct {
	Pivot   PivotRule
	Confirm int

	// shared is the trial's decision index, set by NewTrialRule; st is one
	// node's state, set by NewNodeRule. Both nil in the zero value.
	shared *dag.Cached
	st     *nodeState
}

// nodeState is one correct node's incremental state.
type nodeState struct {
	// dec is the decision index: the trial-shared one, or the node's own
	// (private) when the harness skipped the trial step.
	dec     *dag.Cached
	private bool
	// own indexes the views dec cannot extend (an asynchronous node's
	// stale append view, a resumed run's first views); built on demand.
	own *dag.Cached

	// parents memoizes the append parents of memoView, the view of the
	// node's last Decide or Append: on the default path a node appends on
	// the view it last decided on, so the append touches no index.
	memoView appendmem.View
	parents  []appendmem.MsgID
	pivot    []appendmem.MsgID
	vals     []int64
}

// NewTrialRule implements agreement.PerTrialState: a copy of the rule with
// a fresh decision index for its node rules to share. Its own Append and
// Decide stay stateless, like the zero value's.
func (r Rule) NewTrialRule() agreement.HonestRule {
	r.shared = dag.NewCached()
	return r
}

// NewNodeRule implements agreement.PerNodeState: a copy of the rule with
// fresh per-node state over the trial's shared decision index, or over a
// private one when there is no trial rule.
func (r Rule) NewNodeRule() agreement.HonestRule {
	r.st = &nodeState{dec: r.shared}
	if r.st.dec == nil {
		r.st.dec, r.st.private = dag.NewCached(), true
	}
	return r
}

// node returns the rule's node state; the stateless rule gets a throwaway
// one, whose indexes are built from scratch.
func (r Rule) node() *nodeState {
	if r.st != nil {
		return r.st
	}
	return &nodeState{}
}

// index indexes view through the decision index when view extends it,
// else through the node's own.
func (st *nodeState) index(view appendmem.View) *dag.Dag {
	if st.dec != nil && st.dec.Extends(view) {
		return st.dec.At(view)
	}
	if st.own == nil {
		st.own = dag.NewCached()
	}
	return st.own.At(view)
}

// memoize records the append parents of view, given its index d and pivot:
// every tip, the pivot tip (the selected parent) first.
func (st *nodeState) memoize(view appendmem.View, d *dag.Dag, pivot []appendmem.MsgID) {
	st.memoView = view
	st.parents = d.AppendTips(st.parents[:0])
	if len(st.parents) == 0 {
		return
	}
	pt := pivot[len(pivot)-1]
	i := slices.Index(st.parents, pt)
	if i < 0 { // the pivot tip has a non-selected child: not a tip itself
		i = len(st.parents)
		st.parents = append(st.parents, pt)
	}
	copy(st.parents[1:i+1], st.parents[:i])
	st.parents[0] = pt
}

// Append references all tips of the node's view, pivot tip first (the
// selected parent), and carries the node's input value.
func (r Rule) Append(view appendmem.View, w *appendmem.Writer, input int64, _ *xrand.PCG) {
	st := r.node()
	if view != st.memoView {
		if view.Empty() {
			st.memoView, st.parents = view, st.parents[:0]
		} else {
			d := st.index(view)
			st.pivot = r.Pivot.appendPivot(st.pivot[:0], d)
			st.memoize(view, d, st.pivot)
		}
	}
	w.MustAppend(input, 0, st.parents)
}

// Decide fires once the pivot-chain ordering covers at least k values and
// returns the sign of the sum of the first k ordered values.
func (r Rule) Decide(view appendmem.View, k int, _ *xrand.PCG) (int64, bool) {
	st := r.node()
	d := st.index(view)
	st.pivot = r.Pivot.appendPivot(st.pivot[:0], d)
	st.memoize(view, d, st.pivot)
	st.vals = d.AppendOrderedValues(st.vals[:0], st.pivot, k+r.Confirm)
	if len(st.vals) < k+r.Confirm {
		return 0, false
	}
	return node.SumSign(st.vals[:k]), true
}

// Ordering exposes the full decision ordering for a view — used by
// experiments to analyse the Byzantine composition of the first k values
// (Lemma 5.5).
func (r Rule) Ordering(view appendmem.View) []appendmem.MsgID {
	d := r.node().index(view)
	return d.Linearize(r.Pivot.Pivot(d))
}

// ViewFloor implements agreement.WindowedRule. A node rule reports the
// smallest id its memoized parents and its own indexes can reach; the
// trial rule reports the shared index's floor. Zero for the stateless
// rule, which rebuilds from the first message.
func (r Rule) ViewFloor() int {
	switch {
	case r.st != nil:
		return r.st.floor()
	case r.shared != nil:
		return r.shared.Floor()
	}
	return 0
}

// floor is ViewFloor of a node. A missing own index adds no bound: only
// views older than the decision index need it, and windowed runs (the
// default timing model) append and decide on the latest read only.
func (st *nodeState) floor() int {
	f := math.MaxInt
	for _, p := range st.parents {
		f = min(f, int(p))
	}
	if st.own != nil {
		f = min(f, st.own.Floor())
	}
	if st.private {
		f = min(f, st.dec.Floor())
	}
	return f
}

// CompactTo implements agreement.WindowedRule by compacting the indexes
// the rule owns (a node rule: its own and private ones; the trial rule:
// the shared one); the watermark achieved is the smallest of theirs.
func (r Rule) CompactTo(w int) int {
	switch {
	case r.st != nil:
		got := w
		if r.st.own != nil {
			got = min(got, r.st.own.CompactTo(w))
		}
		if r.st.private {
			got = min(got, r.st.dec.CompactTo(w))
		}
		return got
	case r.shared != nil:
		return r.shared.CompactTo(w)
	}
	return 0
}
