package experiments

import (
	"fmt"

	"repro/internal/bivalence"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// RunE1 — Theorem 2.1 made executable. The model checker exhaustively
// explores every protocol of the threshold-vote family for n ∈ {2,3,4}
// (n=2 only under Quick) over all input assignments and reports which consensus
// property fails; the theorem predicts the OK column is always false.
// A second table demonstrates the proof's machinery on the FLP-style
// RetryVote protocol: a bivalent initial configuration (Lemma 2.2) and an
// explicit non-deciding schedule prefix (Lemma 2.3 / Theorem 2.1).
func RunE1(o Options) []*Table {
	sizes := []int{2, 3, 4}
	if o.Quick {
		sizes = []int{2}
	}
	family := NewTable("E1a: exhaustive check of the threshold-vote family (Theorem 2.1 predicts OK=false everywhere)",
		"n", "protocol", "agreement", "validity", "1-res termination", "bivalent init", "configs", "OK")
	for _, n := range sizes {
		for _, p := range bivalence.Family(n) {
			v := bivalence.CheckTheorem(p, n, 300000)
			family.AddRow(n, v.Protocol, v.Agreement, v.Validity, v.Termination, v.BivalentInitial, v.Configs, v.OK())
			family.Expect(len(family.Rows)-1, 7, OpEq, 0, 0,
				"Theorem 2.1: no protocol of the family solves 1-resilient consensus")
		}
	}

	demo := NewTable("E1b: Lemma 2.2/2.3 machinery on retry-vote (n=3, inputs 0,1,1)",
		"quantity", "value")
	p := &bivalence.RetryVote{N: 3}
	g := bivalence.Explore(p, bivalence.Initial(p, []int{0, 1, 1}), 30000)
	demo.AddRow("explored configurations", g.Size())
	demo.AddRow("initial configuration bivalent (Lemma 2.2)", g.Bivalent(g.Root()))
	cycles := 4
	trace, ok := g.NonDecidingSchedule(g.Root(), cycles)
	demo.AddRow(fmt.Sprintf("non-deciding schedule, %d round-robin cycles", cycles), ok)
	demo.AddRow("schedule length (configurations visited)", len(trace))
	allBivalent := true
	for _, i := range trace {
		if !g.Bivalent(i) {
			allBivalent = false
		}
	}
	demo.AddRow("every visited configuration bivalent", allBivalent)
	demo.Note = "the schedule extends indefinitely; Theorem 2.1's adversary never lets the protocol decide"
	demo.Expect(1, 1, OpEq, 1, 0, "Lemma 2.2: the initial configuration is bivalent")
	demo.Expect(2, 1, OpEq, 1, 0, "Lemma 2.3/Theorem 2.1: a non-deciding round-robin schedule exists")
	demo.Expect(4, 1, OpEq, 1, 0, "Theorem 2.1: every configuration the adversary visits stays bivalent")
	return []*Table{family, demo}
}

// RunE2 — Lemma 3.1: the DelayedChain adversary keeps agreement breakable
// for every round budget up to t; the full t+1 rounds repair it. Each row
// is one (n, t, rounds) point with the measured agreement-failure rate.
func RunE2(o Options) []*Table {
	trials := o.trials(30)
	cases := []struct{ n, t int }{{4, 1}, {5, 2}, {8, 3}}
	if o.Quick {
		cases = cases[:2]
	}
	tbl := NewTable("E2: agreement failure rate of Algorithm 1 truncated to r rounds (DelayedChain adversary, balanced inputs)",
		"n", "t", "rounds", "agreement failures", "expected")
	for _, tc := range cases {
		for rounds := 1; rounds <= tc.t+1; rounds++ {
			c := tc.n - tc.t
			b := scenario.MustBind(scenario.Spec{
				Protocol: scenario.Sync, N: tc.n, T: tc.t, Rounds: rounds,
				Attack: scenario.AttackDelayedChain,
				Inputs: fmt.Sprintf("split:%d", (c+1)/2),
			})
			fails := runner.RateTrials(trials, o.Seed, o.Workers, func(seed uint64) bool {
				return !b.Sync(seed).Verdict.Agreement
			})
			expect := "failures (r <= t)"
			if rounds == tc.t+1 {
				expect = "none (r = t+1)"
				tbl.Expect(len(tbl.Rows), 3, OpEq, 0, 0,
					"Lemma 3.1: the full t+1 rounds repair agreement — zero failures at r = t+1")
			} else {
				tbl.Expect(len(tbl.Rows), 3, OpGt, 0, 0,
					"Lemma 3.1: every round budget r <= t leaves agreement breakable")
			}
			tbl.AddRow(tc.n, tc.t, rounds, fails, expect)
		}
	}
	tbl.Note = "the paper's lower bound: Byzantine agreement needs t+1 rounds in the append memory"
	return []*Table{tbl}
}

// RunE3 — Theorem 3.2: Algorithm 1 with t+1 rounds solves Byzantine
// agreement for t < n/2 and collapses beyond, under the LoudFlip adversary
// (every Byzantine node votes against the unanimous correct input).
func RunE3(o Options) []*Table {
	trials := o.trials(20)
	n := 9
	tbl := NewTable("E3: Algorithm 1 (t+1 rounds) vs LoudFlip, n=9, all correct inputs +1",
		"t", "t/n", "ok (agr+val+term)", "regime")
	maxT := n - 1
	if o.Quick {
		maxT = 6
	}
	for t := 0; t <= maxT; t++ {
		oks := o.rate(trials, scenario.Spec{
			Protocol: scenario.Sync, N: n, T: t, Attack: scenario.AttackLoudFlip,
		}, "ok")
		regime := "t < n/2: must hold"
		if float64(t) >= float64(n)/2 {
			regime = "t >= n/2: must fail"
			tbl.Expect(len(tbl.Rows), 2, OpEq, 0, 0,
				"Theorem 3.2: beyond t >= n/2 the LoudFlip majority flips every run")
		} else {
			tbl.Expect(len(tbl.Rows), 2, OpEq, 1, 0,
				"Theorem 3.2: Algorithm 1 with t+1 rounds solves BA for every t < n/2")
		}
		tbl.AddRow(t, Float(float64(t)/float64(n), "%.2f"), oks, regime)
	}
	tbl.Note = "decision time is (t+1)·Δ — the O(tΔ) bound of Theorem 3.2"
	return []*Table{tbl}
}
