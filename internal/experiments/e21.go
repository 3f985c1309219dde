package experiments

import (
	"repro/internal/runner"
	"repro/internal/scenario"
)

// RunE21 — why Algorithm 6 cites GHOST. The paper grounds the DAG's
// ordering in "one of the tie-breaking rules, such as the heaviest chain
// defined in the GHOST protocol [22] or simply the longest chain [14]".
// E8 showed the two rules behave identically under the pivot-extending
// attack; this experiment shows where they separate — the attack GHOST
// was invented against. The Byzantine nodes build one compact private
// chain from the genesis, never referencing honest blocks. Honest
// Δ-staleness forks dilute the honest *longest* selected-parent chain, so
// at high rates the fork-free private chain out-lengths it and hijacks a
// longest-chain pivot; GHOST weighs whole subtrees, which forks do not
// dilute, and keeps following the honest side far longer.
func RunE21(o Options) []*Table {
	trials := o.trials(60)
	lambdas := []float64{0.25, 0.5, 1.0, 2.0}
	if o.Quick {
		trials = o.trials(20)
		lambdas = []float64{0.25, 1.0, 2.0}
	}
	n, t, k := 10, 4, 41
	tbl := NewTable("E21: private genesis-rooted fork vs the two pivot rules (n=10, t=4, k=41)",
		"λ", "GHOST validity", "longest-chain validity")
	for _, lambda := range lambdas {
		lambda := lambda
		run := func(p scenario.Pivot) runner.Ratio {
			return o.rate(trials, scenario.Spec{
				Protocol: scenario.Dag, N: n, T: t, Lambda: lambda, K: k,
				Pivot: p, Attack: scenario.AttackPrivateFork,
			}, "validity")
		}
		tbl.AddRow(lambda, run(scenario.PivotGhost), run(scenario.PivotLongest))
		row := len(tbl.Rows) - 1
		tbl.ExpectCell(row, 1, OpGe, row, 2, 0.05,
			"refs [22],[14]: GHOST weighs subtrees that forks cannot dilute — it never loses to longest-chain here")
	}
	tbl.ExpectCell(len(tbl.Rows)-1, 1, OpGe, len(tbl.Rows)-1, 2, 0,
		"refs [22],[14]: at the highest rate GHOST strictly dominates the longest-chain pivot")
	tbl.Note = "forks dilute length but not weight: GHOST resists the private fork far longer — the [22] result, reproduced inside the append memory"
	return []*Table{tbl}
}
