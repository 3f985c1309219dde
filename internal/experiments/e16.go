package experiments

import (
	"repro/internal/scenario"
)

// RunE16 — Theorem 5.1's operational content: randomized memory access
// does not rescue deterministic agreement from asynchronous nodes. The
// theorem itself is an impossibility over worst-case schedules — that
// exhaustive adversary lives in the E1 model checker, whose scheduler
// already orders events (including the token-to-append gap) arbitrarily.
// This experiment shows the quantitative face of the same phenomenon:
// when honest nodes take an unbounded-in-expectation time between
// receiving a token and appending (uniform in (0, w·Δ]), the authority's
// access order loses its meaning and resilience degrades at ANY rate —
// here at λ = 0.05, where the fully synchronous chain is comfortably
// safe. The DAG suffers too (staleness delays inclusion), consistent with
// the §5.3 warning that its Byzantine-agreement guarantees need synchrony.
//
// A second table isolates asynchrony with NO Byzantine nodes and split
// inputs: random (non-adversarial) delays alone do not break agreement —
// the impossibility needs the worst-case scheduler, which is exactly why
// the paper pairs randomized access with synchronous nodes from Section
// 5.1 on.
func RunE16(o Options) []*Table {
	trials := o.trials(60)
	delays := []float64{0, 1, 2, 4, 8}
	if o.Quick {
		trials = o.trials(20)
		delays = []float64{0, 2, 8}
	}
	n, t, k := 10, 4, 21
	const lambda = 0.05 // λ(n−t) = 0.3: the synchronous chain is safe here

	attacked := NewTable("E16a: honest token-to-append delay w·Δ under attack (n=10, t=4, λ=0.05, k=21)",
		"delay w (Δ)", "chain validity", "dag validity")
	for _, w := range delays {
		chainOK := o.rate(trials, scenario.Spec{
			Protocol: scenario.Chain, N: n, T: t, Lambda: lambda, K: k,
			Attack: scenario.AttackTieBreak, AsyncDelayMax: w,
		}, "validity")
		dagOK := o.rate(trials, scenario.Spec{
			Protocol: scenario.Dag, N: n, T: t, Lambda: lambda, K: k,
			Attack: scenario.AttackPrivateChain, AsyncDelayMax: w,
		}, "validity")
		attacked.AddRow(w, chainOK, dagOK)
	}
	last := len(attacked.Rows) - 1
	attacked.ExpectCell(last, 1, OpLe, 0, 1, 0,
		"Theorem 5.1: honest asynchrony strictly degrades the chain below its synchronous validity")
	attacked.Expect(last, 1, OpLe, 0.3, 0,
		"Theorem 5.1: at large delays the low rate no longer protects the chain at all")
	attacked.ExpectCell(last, 2, OpLe, 0, 2, 0,
		"Section 5.3: the DAG also suffers — its Byzantine-agreement guarantees need synchronous nodes")
	attacked.Note = "the rate no longer protects anyone: asynchrony hands the fresh-reading adversary an unbounded staleness advantage"

	benign := NewTable("E16b: the same delays with NO Byzantine nodes, split inputs (agreement at stake)",
		"delay w (Δ)", "chain agreement", "dag agreement")
	for _, w := range delays {
		chainOK := o.rate(trials, scenario.Spec{
			Protocol: scenario.Chain, N: 8, T: 0, Lambda: 0.5, K: k,
			Inputs: "split:4", AsyncDelayMax: w,
		}, "agreement")
		dagOK := o.rate(trials, scenario.Spec{
			Protocol: scenario.Dag, N: 8, T: 0, Lambda: 0.5, K: k,
			Inputs: "split:4", AsyncDelayMax: w,
		}, "agreement")
		row := len(benign.Rows)
		benign.Expect(row, 1, OpGe, 0.85, 0,
			"Theorem 5.1: random (non-adversarial) delays alone do not break chain agreement")
		benign.Expect(row, 2, OpGe, 0.85, 0,
			"Theorem 5.1: random delays alone do not break DAG agreement — the impossibility needs the worst-case scheduler")
		benign.AddRow(w, chainOK, dagOK)
	}
	benign.Note = "random delays alone are harmless; Theorem 5.1 needs the worst-case scheduler — which is the E1 model checker's job"
	return []*Table{attacked, benign}
}
