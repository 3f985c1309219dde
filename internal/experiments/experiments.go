// Package experiments regenerates every quantitative claim of the paper as
// structured, typed results: one experiment per theorem/lemma (see
// DESIGN.md's experiment index E1–E22). Each run yields tables of typed
// cells plus declarative checks — the paper's predictions as executable
// predicates — and the same functions back the amexp CLI and the
// root-level benchmarks, so a reader can diff "paper says" against
// "this machine measured" from either entry point. Rendering (text,
// markdown, JSON, CSV) lives in internal/report.
//
// Experiments are deterministic given (Options.Seed, Options.Trials);
// trials fan out across share-nothing workers (each trial builds its own
// simulator and memory) via internal/runner, merged in trial order.
package experiments

import (
	"strings"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// Options scales an experiment run.
type Options struct {
	// Trials is the number of repetitions per parameter point; 0 means the
	// experiment's default.
	Trials int `json:"trials,omitempty"`
	// Seed is the base seed; trial i of a point uses Seed + i.
	Seed uint64 `json:"seed"`
	// Quick trims parameter grids for fast smoke runs (benches use this).
	Quick bool `json:"quick,omitempty"`
	// Workers overrides the trial fan-out width; 0 means one per CPU.
	Workers int `json:"workers,omitempty"`
}

func (o Options) trials(def int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	return def
}

// rate runs trials seeds of spec, from o.Seed, through the scenario sweep
// executor and returns the success rate of one verdict metric (ok,
// validity, agreement or termination).
func (o Options) rate(trials int, spec scenario.Spec, metric string) runner.Ratio {
	spec.Seed, spec.Trials, spec.Metrics = o.Seed, trials, []string{metric}
	res := scenario.MustRunSpec(spec, scenario.Options{Workers: o.Workers})
	return res.Points[0].Metrics[0].Ratio(trials)
}

// Experiment is one reproducible unit: a theorem or lemma of the paper.
type Experiment struct {
	ID       string // "E1" .. "E22"
	Title    string
	PaperRef string // theorem/lemma/section
	Run      func(Options) []*Table
}

// All returns every experiment in order. The slice is freshly allocated.
func All() []Experiment {
	return []Experiment{
		{"E1", "Asynchronous impossibility (model checking)", "Theorem 2.1, Lemmas 2.2-2.3", RunE1},
		{"E2", "Round lower bound staircase", "Lemma 3.1", RunE2},
		{"E3", "Synchronous BA resilience t < n/2", "Theorem 3.2", RunE3},
		{"E4", "Timestamp baseline validity decay", "Theorem 5.2", RunE4},
		{"E5", "Chain, deterministic tie-breaking: n/3 collapse", "Theorem 5.3", RunE5},
		{"E6", "Chain, randomized tie-breaking: rate-dependent resilience", "Theorem 5.4", RunE6},
		{"E7", "Private-chain insertion grows like log n", "Lemma 5.5", RunE7},
		{"E8", "DAG resilience independent of the rate", "Theorem 5.6", RunE8},
		{"E9", "Message-passing simulation cost", "Section 4", RunE9},
		{"E10", "Headline: Chain vs DAG vs Timestamps", "Section 5", RunE10},
		{"E11", "DAG finality under temporal asynchrony", "Section 5.3 (closing discussion)", RunE11},
		{"E12", "Ablation: honest staleness causes the chain collapse", "Theorem 5.4 (mechanism)", RunE12},
		{"E13", "Sticky bits vs append memory separation", "Section 1.2", RunE13},
		{"E14", "Backbone properties: growth, quality, common prefix", "Section 5.2 (context)", RunE14},
		{"E15", "Append memory vs message passing: cost and the shared staircase", "Sections 1.3, 3, 4", RunE15},
		{"E16", "Asynchronous nodes defeat randomized access", "Theorem 5.1", RunE16},
		{"E17", "Access-discipline ablation: burstiness vs rate", "Section 1.1 / Lemma 5.5 / Theorem 5.4", RunE17},
		{"E18", "Decision latency across structures", "Theorem 3.2 / Section 5", RunE18},
		{"E19", "Confirmation depth: a null result, and why", "extension / Lemma 5.5", RunE19},
		{"E20", "Hashing power, not head count: heterogeneous rates", "Section 1.1 (PoW reading)", RunE20},
		{"E21", "The GHOST advantage: private forks vs pivot rules", "Section 5.3 (refs [22],[14])", RunE21},
		{"E22", "Chain vs DAG across network topologies", "Theorems 5.4/5.6 under gossip transport", RunE22},
		{"E23", "Bounded-memory horizons: windowed views and checkpointed prefixes", "Definition 2.1 (view inclusion) / Section 4 (cost)", RunE23},
		{"E24", "Searched adversaries beat hand-coded presets", "Theorems 5.3/5.6, Lemma 5.5 (worst-case strategies)", RunE24},
	}
}

// byID indexes the registry once; ByID lookups must not re-allocate and
// re-scan All() (amexp and the bench harness look experiments up per run).
var byID = func() map[string]Experiment {
	m := make(map[string]Experiment, len(All()))
	for _, e := range All() {
		m[strings.ToUpper(e.ID)] = e
	}
	return m
}()

// ByID returns the experiment with the given id (case-insensitive).
func ByID(id string) (Experiment, bool) {
	e, ok := byID[strings.ToUpper(id)]
	return e, ok
}
