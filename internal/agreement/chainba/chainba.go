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
// The agreement harness instead splits it once per trial (one decision
// index shared by every correct node, since all of them read the same
// memory) and then per node (the node's memoized longest tips, plus its
// own index for views the shared one cannot extend); see agreement.Split.
// Without the trial step each node's decision index is its own. Behaviour
// is identical either way: the tie-breaker still draws from the node's
// randomness at append time. Trial and node instances recycle
// (agreement.Recycler): a pooled trial slot hands its last trial's
// instances back, and the new ones keep their indexes' and buffers'
// capacity.
type Rule struct {
	TB      chain.TieBreaker
	Confirm int

	split agreement.Split[*chain.Tree, *memo]
}

// memo memoizes the longest tips of view, the view of the node's last
// Decide or Append: on the default path a node appends on the view it
// last decided on, so the append touches no index.
type memo struct {
	view   appendmem.View
	tips   []appendmem.MsgID
	parent [1]appendmem.MsgID
}

func newMemo() *memo { return &memo{} }

// Clear implements agreement.Memo.
func (m *memo) Clear() { m.view, m.tips = appendmem.View{}, m.tips[:0] }

// Floor implements agreement.Memo: the tips are in arrival order, so the
// first is the smallest id.
func (m *memo) Floor() int {
	if len(m.tips) > 0 {
		return int(m.tips[0])
	}
	return math.MaxInt
}

// NewNodeRule implements agreement.PerNodeState.
func (r Rule) NewNodeRule() agreement.HonestRule { return r.NewNodeRuleFrom(nil) }

// NewTrialRuleFrom implements agreement.Recycler.
func (r Rule) NewTrialRuleFrom(spare agreement.HonestRule) agreement.HonestRule {
	old, _ := spare.(Rule)
	r.split = r.split.Trial(old.split, chain.Build)
	return r
}

// NewNodeRuleFrom implements agreement.Recycler.
func (r Rule) NewNodeRuleFrom(spare agreement.HonestRule) agreement.HonestRule {
	old, _ := spare.(Rule)
	r.split = r.split.Node(old.split, chain.Build, newMemo)
	return r
}

// Release implements agreement.Recycler.
func (r Rule) Release() { r.split.Release() }

// ViewFloor implements agreement.WindowedRule.
func (r Rule) ViewFloor() int { return r.split.ViewFloor() }

// CompactTo implements agreement.WindowedRule.
func (r Rule) CompactTo(w int) int { return r.split.CompactTo(w) }

// Append extends the tie-broken longest chain of the node's view with the
// node's input value. On an empty view the block attaches to the genesis.
func (r Rule) Append(view appendmem.View, w *appendmem.Writer, input int64, rng *xrand.PCG) {
	st := r.split.State(chain.Build, newMemo)
	m := st.Memo
	if view != m.view {
		m.view, m.tips = view, m.tips[:0]
		if !view.Empty() {
			m.tips = st.At(view).AppendLongestTips(m.tips)
		}
	}
	m.parent[0] = appendmem.None
	if len(m.tips) > 0 {
		m.parent[0] = r.TB.Pick(m.tips, view, rng)
	}
	w.MustAppend(input, 0, m.parent[:])
}

// Decide fires once the view contains a longest chain of length at least k
// and returns the sign of the sum of that chain's first k values.
func (r Rule) Decide(view appendmem.View, k int, rng *xrand.PCG) (int64, bool) {
	st := r.split.State(chain.Build, newMemo)
	m := st.Memo
	t := st.At(view)
	m.view, m.tips = view, t.AppendLongestTips(m.tips[:0])
	if t.Height() < k+r.Confirm {
		return 0, false
	}
	tip := r.TB.Pick(m.tips, view, rng)
	return node.SumSign(t.PrefixValues(tip, k)), true
}
