// Package chainba implements Algorithm 5 of the paper: Byzantine agreement
// on the Chain. An honest node, when granted memory access, appends its
// input value to the tip of a longest chain of its current (up to Δ stale)
// view, breaking ties between equally long chains by a pluggable rule
// (Algorithm 5 Lines 5–7). Once some longest chain reaches length k, the
// node decides on the sign of the sum of the first k values in that chain
// (Line 10).
//
// The paper analyses two tie-breaking rules:
//
//   - deterministic (Garay et al.): Theorem 5.3 — weak Byzantine agreement
//     is impossible for t ≥ n/3 because the adversary can assume every tie
//     goes its way (chain.AdversarialTieBreaker);
//   - randomized (Ren): Theorem 5.4 — resilience degrades with the correct
//     append rate, t/n ≤ 1/(1+λ(n−t)).
package chainba

import (
	"math"

	"repro/internal/agreement"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/node"
	"repro/internal/xrand"
)

// Rule is the honest-node behaviour of Algorithm 5, parameterized by the
// tie-breaking rule. It implements agreement.HonestRule.
//
// Confirm is an extension beyond the paper's Algorithm 5: the familiar
// blockchain "confirmation depth". With Confirm = c > 0 a node decides on
// the first k chain values only once the longest chain has length k+c, so
// the decision prefix is c blocks deep at decision time. Deep prefixes are
// harder to perturb late — experiment E19 measures how much that buys each
// structure.
//
// The zero value is stateless and rebuilds the chain index on every call.
// The agreement harness instead splits it once per trial (NewTrialRule:
// one decision index shared by every correct node, since all of them read
// the same memory) and then per node (NewNodeRule: the node's memoized
// longest tips, plus its own index for views the shared one cannot
// extend). Without the trial step each node's decision index is its own.
// Behaviour is identical either way: the tie-breaker still draws from the
// node's randomness at append time.
type Rule struct {
	TB      chain.TieBreaker
	Confirm int

	// shared is the trial's decision index, set by NewTrialRule; st is one
	// node's state, set by NewNodeRule. Both nil in the zero value.
	shared *chain.Cached
	st     *nodeState
}

// nodeState is one correct node's incremental state.
type nodeState struct {
	// dec is the decision index: the trial-shared one, or the node's own
	// (private) when the harness skipped the trial step.
	dec     *chain.Cached
	private bool
	// own indexes the views dec cannot extend (an asynchronous node's
	// stale append view, a resumed run's first views); built on demand.
	own *chain.Cached

	// tips memoizes the longest tips of memoView, the view of the node's
	// last Decide or Append: on the default path a node appends on the
	// view it last decided on, so the append touches no index.
	memoView appendmem.View
	tips     []appendmem.MsgID
	parent   [1]appendmem.MsgID
}

// NewTrialRule implements agreement.PerTrialState: a copy of the rule with
// a fresh decision index for its node rules to share. Its own Append and
// Decide stay stateless, like the zero value's.
func (r Rule) NewTrialRule() agreement.HonestRule {
	r.shared = chain.NewCached()
	return r
}

// NewNodeRule implements agreement.PerNodeState: a copy of the rule with
// fresh per-node state over the trial's shared decision index, or over a
// private one when there is no trial rule.
func (r Rule) NewNodeRule() agreement.HonestRule {
	r.st = &nodeState{dec: r.shared}
	if r.st.dec == nil {
		r.st.dec, r.st.private = chain.NewCached(), true
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

// tree indexes view through the decision index when view extends it, else
// through the node's own.
func (st *nodeState) tree(view appendmem.View) *chain.Tree {
	if st.dec != nil && st.dec.Extends(view) {
		return st.dec.At(view)
	}
	if st.own == nil {
		st.own = chain.NewCached()
	}
	return st.own.At(view)
}

// Append extends the tie-broken longest chain of the node's view with the
// node's input value. On an empty view the block attaches to the genesis.
func (r Rule) Append(view appendmem.View, w *appendmem.Writer, input int64, rng *xrand.PCG) {
	st := r.node()
	if view != st.memoView {
		st.memoView, st.tips = view, st.tips[:0]
		if !view.Empty() {
			st.tips = st.tree(view).AppendLongestTips(st.tips)
		}
	}
	st.parent[0] = appendmem.None
	if len(st.tips) > 0 {
		st.parent[0] = r.TB.Pick(st.tips, view, rng)
	}
	w.MustAppend(input, 0, st.parent[:])
}

// Decide fires once the view contains a longest chain of length at least k
// and returns the sign of the sum of that chain's first k values.
func (r Rule) Decide(view appendmem.View, k int, rng *xrand.PCG) (int64, bool) {
	st := r.node()
	t := st.tree(view)
	st.memoView, st.tips = view, t.AppendLongestTips(st.tips[:0])
	if t.Height() < k+r.Confirm {
		return 0, false
	}
	tip := r.TB.Pick(st.tips, view, rng)
	return node.SumSign(t.PrefixValues(tip, k)), true
}

// ViewFloor implements agreement.WindowedRule. A node rule reports the
// smallest id its memoized tips and its own indexes can reach; the trial
// rule reports the shared index's floor. Zero for the stateless rule,
// which rebuilds from the first message.
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
	if len(st.tips) > 0 {
		f = int(st.tips[0]) // arrival order: the smallest id
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
