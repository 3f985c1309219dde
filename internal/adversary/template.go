// Package adversary implements the Byzantine strategies the paper's
// Section 5 analyses use to derive the resilience bounds, as presets of two
// parameterized templates (ChainAttack, DagAttack):
//
//   - Fork (Theorem 5.3): against deterministic tie-breaking, every
//     Byzantine append forks the chain by appending a sibling of the
//     deepest correct block; with worst-case (adversarial) tie-breaking
//     the fork wins and the correct block is orphaned, so the longest
//     chain carries a Byzantine fraction of t/(n−t) — a majority as soon
//     as t ≥ n/3.
//   - TieBreak (Theorem 5.4): against randomized tie-breaking, the
//     adversary "plays the role of a tie-breaker among the concurrent
//     correct appends": reading the memory fresh (no staleness handicap),
//     it immediately extends the first correct append of the current Δ
//     interval, prolonging the chain so that the remaining correct appends
//     of the interval — made against an outdated state — are wasted.
//   - PrivateChain (Lemma 5.5): on the DAG, the adversary cannot orphan
//     correct values (they are included inclusively), but it can append
//     private chains on top of the pivot during intervals in which no
//     correct node appends, inserting runs of Θ(λ log n) Byzantine values
//     into the first k positions of the decision ordering.
//   - LastMinute is Lemma 5.5's literal strategy: stay silent while the
//     correct nodes fill the ordering and extend the pivot with private
//     chains only "in the last interval just before the decision".
//   - PrivateFork is the classic GHOST-motivating attack (Sompolinsky &
//     Zohar [22], the paper's DAG tie-breaking reference): one private
//     chain from the genesis that never references an honest block. Honest
//     staleness forks dilute the longest selected-parent chain, so at high
//     rates the compact private chain can hijack a longest-chain pivot,
//     while GHOST, which weighs whole subtrees, keeps to the honest side.
//   - Equivocate keeps forks alive by alternately forking and extending
//     the first longest tip; the chain protocols must still terminate.
//
// All strategies exploit exactly the powers the model grants Byzantine
// nodes: free fresh reads at any instant, free choice of referenced state,
// and the same Poisson access rationing as everyone else. The templates
// generalize them along the axes a search harness wants to explore — fork
// schedule, fork target, equivocation fan-out, private-chain segment
// length, activation margin, release delay. Like the strategies, they draw
// no randomness of their own: a template run is a pure function of
// (Params, seed).
package adversary

import (
	"repro/internal/access"
	"repro/internal/agreement"
	"repro/internal/agreement/dagba"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/dag"
	"repro/internal/sim"
)

// The named attacks' preset points: each is the Params value the scenario
// registry binds for the attack of the same name, and the committed golden
// in testdata/presets_golden.txt pins what each produces.
var (
	Fork         = Params{ForkCount: 1, ForkPeriod: 1, Target: TargetCorrect, Fanout: 1}
	TieBreak     = Params{ForkCount: 0, ForkPeriod: 1, Target: TargetCorrect, Fanout: 1}
	Equivocate   = Params{ForkCount: 1, ForkPeriod: 2, ForkLonely: true, Target: TargetFirst, Fanout: 1}
	PrivateChain = Params{Root: RootPivot, Segment: 1, Fanout: 1}
	LastMinute   = Params{Root: RootPivot, Segment: 1, StartWithin: 6, Fanout: 1}
	PrivateFork  = Params{Root: RootGenesis, Segment: 0, Fanout: 1}
)

// ChainAttack is the parameterized chain-substrate template. Per grant it
// reads the memory fresh and either *forks* (appends a sibling of a longest
// tip, per Target) or *extends* (appends a child of a longest tip), driven
// by a cyclic schedule: grant i forks iff i mod ForkPeriod < ForkCount,
// plus the ForkLonely override that forks whenever only one longest tip
// exists (keeping ties alive). Its presets are Fork, TieBreak and
// Equivocate.
type ChainAttack struct {
	P     Params
	env   *agreement.Env
	idx   *chain.Cached
	grant int
}

// Init implements agreement.Adversary.
func (a *ChainAttack) Init(env *agreement.Env) {
	a.env = env
	a.idx = chain.NewCached()
	a.grant = 0
	if a.P.ForkPeriod < 1 {
		a.P.ForkPeriod = 1
	}
	if a.P.Fanout < 1 {
		a.P.Fanout = 1
	}
}

// OnGrant implements agreement.Adversary.
func (a *ChainAttack) OnGrant(g access.Grant) {
	step := a.grant
	a.grant++
	view := a.env.Mem.Read()
	tips := a.idx.At(view).LongestTips()
	if len(tips) == 0 {
		a.publish(g.Node, []appendmem.MsgID{appendmem.None})
		return
	}
	fork := step%a.P.ForkPeriod < a.P.ForkCount
	if !fork && a.P.ForkLonely && len(tips) == 1 {
		fork = true
	}
	if fork {
		if a.P.Target == TargetCorrect {
			// Fork the first correct-authored longest tip; if every longest
			// tip is already Byzantine, extend ours (no point forking it).
			for _, tip := range tips {
				if !a.env.Roster.IsByzantine(view.Message(tip).Author) {
					a.publish(g.Node, []appendmem.MsgID{chain.Parent(view.Message(tip))})
					return
				}
			}
			a.publish(g.Node, []appendmem.MsgID{tips[0]})
			return
		}
		a.publish(g.Node, []appendmem.MsgID{chain.Parent(view.Message(tips[0]))})
		return
	}
	// Extend: round-robin across the first Fanout longest tips, so a raised
	// fan-out feeds every live fork instead of only the first.
	i := 0
	if a.P.Fanout > 1 {
		i = step % a.P.Fanout
		if i >= len(tips) {
			i = len(tips) - 1
		}
	}
	a.publish(g.Node, []appendmem.MsgID{tips[i]})
}

// publish lands the block, immediately or Withhold·Δ later. The parents
// were chosen against the grant-time view either way: a withheld block is
// decided early and released late.
func (a *ChainAttack) publish(node appendmem.NodeID, parents []appendmem.MsgID) {
	if a.P.Withhold <= 0 {
		a.env.Writer(node).MustAppend(-1, 0, parents)
		return
	}
	a.env.Sim.After(sim.Time(a.P.Withhold*a.env.Cfg.Delta), func() {
		a.env.Writer(node).MustAppend(-1, 0, parents)
	})
}

// DagAttack is the parameterized DAG-substrate template: Byzantine grants
// build private single-parent chains in Fanout round-robin lanes. A lane
// roots its segments at the fresh pivot tip or at the genesis (Root), and
// re-roots after every Segment blocks (0 = root once, never again).
// StartWithin > 0 wastes every grant until the pivot ordering is within
// that many values of the decision threshold k — the "last minute" gate.
// Its presets are PrivateChain, LastMinute and PrivateFork.
type DagAttack struct {
	P Params
	// Pivot must match the honest pivot rule when Root or StartWithin use it.
	Pivot dagba.PivotRule
	env   *agreement.Env
	idx   *dag.Cached
	tips  []appendmem.MsgID // per-lane private tip; None until rooted
	seg   []int             // per-lane blocks since the last rooting
	grant int
	// Reused per grant: the fresh view's pivot and the ordering prefix the
	// StartWithin gate counts.
	pivot, order []appendmem.MsgID
}

// Init implements agreement.Adversary.
func (a *DagAttack) Init(env *agreement.Env) {
	a.env = env
	a.idx = dag.NewCached()
	a.grant = 0
	if a.P.Fanout < 1 {
		a.P.Fanout = 1
	}
	if a.P.Root == "" {
		a.P.Root = RootPivot
	}
	a.tips = make([]appendmem.MsgID, a.P.Fanout)
	a.seg = make([]int, a.P.Fanout)
	for i := range a.tips {
		a.tips[i] = appendmem.None
	}
}

// OnGrant implements agreement.Adversary.
func (a *DagAttack) OnGrant(g access.Grant) {
	step := a.grant
	a.grant++
	// The fresh view is only consulted when a parameter needs it: the
	// private-fork preset never reads at all.
	var pivot []appendmem.MsgID
	if a.P.Root == RootPivot || a.P.StartWithin > 0 {
		d := a.idx.At(a.env.Mem.Read())
		a.pivot = a.Pivot.AppendPivot(a.pivot[:0], d)
		pivot = a.pivot
		if a.P.StartWithin > 0 {
			// The gate reads only the ordering's first K−StartWithin blocks.
			need := a.env.Cfg.K - a.P.StartWithin
			a.order = d.AppendLinearize(a.order[:0], pivot, need)
			if len(a.order) < need {
				return // too early: wasting the token IS the strategy
			}
		}
	}
	lane := 0
	if a.P.Fanout > 1 {
		lane = step % a.P.Fanout
	}
	if a.tips[lane] == appendmem.None || (a.P.Segment > 0 && a.seg[lane] >= a.P.Segment) {
		// Root a fresh segment.
		var parents []appendmem.MsgID
		if a.P.Root == RootPivot && len(pivot) > 0 {
			parents = []appendmem.MsgID{pivot[len(pivot)-1]}
		}
		a.seg[lane] = 1
		a.publish(g.Node, lane, parents)
		return
	}
	a.seg[lane]++
	a.publish(g.Node, lane, []appendmem.MsgID{a.tips[lane]})
}

// publish lands the block and records it as the lane's new tip — at grant
// time, or Withhold·Δ later (in which case intervening grants still chain
// off the previous tip, widening the private structure).
func (a *DagAttack) publish(node appendmem.NodeID, lane int, parents []appendmem.MsgID) {
	if a.P.Withhold <= 0 {
		a.tips[lane] = a.env.Writer(node).MustAppend(-1, 0, parents).ID
		return
	}
	a.env.Sim.After(sim.Time(a.P.Withhold*a.env.Cfg.Delta), func() {
		a.tips[lane] = a.env.Writer(node).MustAppend(-1, 0, parents).ID
	})
}
