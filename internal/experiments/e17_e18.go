package experiments

import (
	"repro/internal/runner"
	"repro/internal/scenario"
)

// RunE17 — access-discipline ablation: the paper models proof-of-work as a
// Poisson process (§1.1). Which Section 5 effects come from the *rate* and
// which from Poisson *burstiness*? Replacing the authority with a
// deterministic round-robin token stream at the same aggregate rate keeps
// the rate and removes all variance:
//
//   - the chain's collapse (Theorem 5.4) survives — it is driven by honest
//     view staleness, which only needs the rate;
//   - the DAG's residual degradation (Lemma 5.5) disappears — the private
//     chains need consecutive Byzantine grants, i.e. bursts, which the
//     round-robin stream never produces.
func RunE17(o Options) []*Table {
	trials := o.trials(60)
	lambdas := []float64{0.25, 1.0}
	if o.Quick {
		trials = o.trials(20)
	}
	n, t, k := 10, 4, 41
	tbl := NewTable("E17: Poisson vs round-robin token authority at the same rate (n=10, t=4, k=41)",
		"λ", "chain, Poisson", "chain, round-robin", "dag, Poisson", "dag, round-robin")
	for _, lambda := range lambdas {
		lambda := lambda
		run := func(rr bool, isDag bool) runner.Ratio {
			spec := scenario.Spec{
				Protocol: scenario.Chain, N: n, T: t, Lambda: lambda, K: k,
				Attack: scenario.AttackTieBreak,
			}
			if isDag {
				spec.Protocol = scenario.Dag
				spec.Attack = scenario.AttackPrivateChain
			}
			if rr {
				spec.Access = scenario.AccessRoundRobin
			}
			return o.rate(trials, spec, "validity")
		}
		tbl.AddRow(lambda,
			run(false, false), run(true, false),
			run(false, true), run(true, true))
		row := len(tbl.Rows) - 1
		tbl.ExpectCell(row, 4, OpGe, row, 3, 0.1,
			"Lemma 5.5: removing Poisson bursts (round-robin) heals the DAG's residual degradation")
	}
	tbl.Expect(len(tbl.Rows)-1, 2, OpLe, 0.3, 0,
		"Theorem 5.4: the chain's collapse survives de-bursting — it is driven by the rate via honest staleness")
	tbl.Note = "burstiness is Lemma 5.5's whole weapon (dag column heals); staleness is Theorem 5.4's (chain column doesn't)"
	return []*Table{tbl}
}

// RunE18 — decision latency. The synchronous protocol decides in exactly
// (t+1)·Δ (Theorem 3.2); the randomized protocols wait for k values, so
// the natural prediction is ≈ k·Δ/(n·λ) plus structure-specific overhead:
// the timestamp baseline needs exactly k appends; the chain needs a
// longest CHAIN of length k, and forks (which grow with λ) stretch that;
// the DAG needs k ordered values — forks don't hurt it, but inclusion
// lags by the staleness Δ. Measured mean decision times across λ:
func RunE18(o Options) []*Table {
	trials := o.trials(40)
	lambdas := []float64{0.1, 0.25, 0.5, 1.0}
	if o.Quick {
		trials = o.trials(15)
		lambdas = []float64{0.25, 1.0}
	}
	n, k := 10, 41
	tbl := NewTable("E18: mean decision time (in Δ) with no adversary, n=10, t=0, k=41",
		"λ", "ideal k/(nλ)", "timestamp", "chain", "dag (GHOST)")
	for _, lambda := range lambdas {
		lambda := lambda
		mean := func(p scenario.Protocol) float64 {
			b := scenario.MustBind(scenario.Spec{
				Protocol: p, N: n, T: 0, Lambda: lambda, K: k,
			})
			return runner.MeanTrials(trials, o.Seed, o.Workers, func(seed uint64) float64 {
				r := b.Randomized(seed)
				var sum float64
				cnt := 0
				for _, id := range r.Roster.Correct() {
					if r.Outcome.Decided[id] {
						sum += float64(r.DecideTime[id])
						cnt++
					}
				}
				if cnt == 0 {
					return 0
				}
				return sum / float64(cnt)
			})
		}
		ideal := float64(k) / (float64(n) * lambda)
		tbl.AddRow(lambda, ideal,
			mean(scenario.Timestamp),
			mean(scenario.Chain),
			mean(scenario.Dag))
		row := len(tbl.Rows) - 1
		tbl.ExpectCell(row, 2, OpLe, row, 1, 0.3*ideal,
			"Theorem 5.2 latency: the timestamp baseline needs exactly k appends — it tracks k/(nλ) closely")
		tbl.ExpectCell(row, 3, OpGe, row, 4, 0,
			"Section 5 latency: forks stretch the chain's wait for a length-k chain beyond the DAG's")
	}
	tbl.Note = "timestamp tracks the ideal; the chain pays for forks (worse as λ grows); the DAG pays only a near-constant staleness lag"
	return []*Table{tbl}
}
