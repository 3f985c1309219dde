package experiments

import (
	"repro/internal/runner"
	"repro/internal/scenario"
)

// RunE20 — hashing power, not head count. The paper counts Byzantine
// *nodes* because its model gives every node the same access rate λ; in
// the proof-of-work reading (which §1.1 invokes), what an adversary
// controls is a fraction of the total hashing power. Heterogeneous
// per-node rates make the translation exact: we compare three
// configurations with identical total rate and identical Byzantine RATE
// share (0.4) but very different Byzantine node counts —
//
//	uniform:        t=4 of n=10, every node at λ=0.5
//	few-but-strong: t=2 whales at λ=1.0, 8 honest at λ=0.375
//	many-but-weak:  t=6 at λ=1/3, 4 honest whales at λ=0.75
//
// Validity under each structure's worst adversary should match across the
// three rows: resilience is a function of the rate share t·λ_byz/Σλ, the
// quantity the paper's t/n stands for.
func RunE20(o Options) []*Table {
	trials := o.trials(60)
	if o.Quick {
		trials = o.trials(20)
	}
	const k = 41

	type shape struct {
		label string
		t     int
		rates []float64
	}
	mkRates := func(n int, honest, byz float64, t int) []float64 {
		rates := make([]float64, n)
		for i := range rates {
			if i >= n-t {
				rates[i] = byz
			} else {
				rates[i] = honest
			}
		}
		return rates
	}
	shapes := []shape{
		{"uniform: t=4/10, all λ=0.5", 4, mkRates(10, 0.5, 0.5, 4)},
		{"few-but-strong: t=2 whales λ=1.0", 2, mkRates(10, 0.375, 1.0, 2)},
		{"many-but-weak: t=6 at λ=1/3", 6, mkRates(10, 0.75, 1.0/3.0, 6)},
	}
	if o.Quick {
		shapes = shapes[:2]
	}

	tbl := NewTable("E20: identical total rate (5/Δ) and Byzantine rate share (0.4), different node counts",
		"configuration", "byz nodes", "byz rate share", "chain validity", "dag validity")
	for _, sh := range shapes {
		total, byz := 0.0, 0.0
		for i, r := range sh.rates {
			total += r
			if i >= 10-sh.t {
				byz += r
			}
		}
		validity := func(p scenario.Protocol, attack scenario.Attack) runner.Ratio {
			return o.rate(trials, scenario.Spec{
				Protocol: p, N: 10, T: sh.t, Rates: sh.rates, K: k, Attack: attack,
			}, "validity")
		}
		chainOK := validity(scenario.Chain, scenario.AttackTieBreak)
		dagOK := validity(scenario.Dag, scenario.AttackPrivateChain)
		tbl.AddRow(sh.label, sh.t, Float(byz/total, "%.2f"), chainOK, dagOK)
		row := len(tbl.Rows) - 1
		if row > 0 {
			tbl.ExpectCell(row, 3, OpEq, 0, 3, 0.35,
				"Section 1.1: chain validity depends on the Byzantine RATE share, not the node count")
			tbl.ExpectCell(row, 4, OpEq, 0, 4, 0.35,
				"Section 1.1: DAG validity depends on the Byzantine RATE share, not the node count")
		}
	}
	tbl.Note = "rows match within noise: the paper's t/n is really the adversary's rate (hash-power) share"
	return []*Table{tbl}
}
