// Command amsearch searches the attack-parameter space of a
// parameterized adversary template for the worst case: instead of
// trusting a hand-coded preset (fork, equivocate, private-chain, ...) to
// be the strongest strategy, it optimizes the template's parameters
// against an objective — the disagreement rate, or the mean decision
// latency — under a fixed trial budget. Same seed, same trajectory: the
// candidate pool, the rung decisions and the winner are reproducible
// from the printed seed, regardless of -workers or -distribute.
//
// Examples:
//
//	amsearch -protocol chain -n 32 -t 11 -lambda 0.5 -k 41 -tiebreak adversarial -attack fork -budget 4800 -seed 1
//	amsearch -protocol dag -n 16 -t 5 -lambda 0.5 -k 41 -attack private-chain -objective latency
//	amsearch -protocol chain -n 9 -t 4 -lambda 0.5 -k 41 -tiebreak adversarial -attack fork -promote examples/scenarios
//	amsearch -replay examples/scenarios/searched_chain_disagreement.json
//	amsearch -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/distrib"
	"repro/internal/scenario"
	"repro/internal/search"
)

func main() {
	var (
		protocol = flag.String("protocol", "chain", scenario.Protocols.Help())
		n        = flag.Int("n", 10, "total nodes")
		t        = flag.Int("t", 3, "Byzantine nodes (the last t ids)")
		lambda   = flag.Float64("lambda", 0.5, "token rate per node per Δ")
		delta    = flag.Float64("delta", 1.0, "synchrony bound Δ")
		k        = flag.Int("k", 21, "decision threshold")
		tiebreak = flag.String("tiebreak", "random", "chain tie-breaking: "+scenario.TieBreaks.Help())
		pivot    = flag.String("pivot", "ghost", "dag pivot rule: "+scenario.Pivots.Help())
		attack   = flag.String("attack", "fork", "searched attack template: "+strings.Join(scenario.ParameterizedAttacks(), " | "))
		confirm  = flag.Int("confirm", 0, "chain/dag confirmation depth")
		inputs   = flag.String("inputs", "same", `inputs: same | same:-1 | split:<ones> | random`)
		specPath = flag.String("spec", "", "search around a JSON scenario spec instead of the flags above")

		objective = flag.String("objective", string(search.Disagreement),
			"maximized objective: "+strings.Join(search.Objectives(), " | "))
		budget  = flag.Int("budget", search.DefaultBudget, "total trial budget across all rungs (sizes the candidate pool)")
		seed    = flag.Uint64("seed", 1, "search seed: candidate sampling AND trial base seed (same seed = same trajectory)")
		rungsF  = flag.String("rungs", "", "successive-halving trial budgets, ascending (default 16,64,256)")
		eta     = flag.Int("eta", 0, "halving rate: each rung keeps ceil(active/eta) survivors (0 = 4)")
		workers = flag.Int("workers", 0, "in-process trial parallelism (0 = GOMAXPROCS)")

		format  = flag.String("format", "text", "output format: text | json")
		promote = flag.String("promote", "", "minimize the winner to a single-seed counterexample spec and write it here (a directory or a .json path)")
		replayF = flag.String("replay", "", "replay a committed counterexample spec; exit 1 unless some trial disagrees or violates an invariant")
		list    = flag.Bool("list", false, "enumerate searchable attacks (with parameter schemas) and objectives, then exit")

		distribute = flag.Int("distribute", 0, "spawn this many local worker processes and shard evaluation trials across them")
		workersAdr = flag.String("workers-addr", "", "comma-separated amworker TCP addresses to shard evaluation trials across")
		cacheDir   = flag.String("cache", "", "content-addressed lease result cache directory (rung escalations re-serve lower-rung chunks)")
		leaseTO    = flag.Duration("lease-timeout", 0, "per-lease worker timeout before reassignment (0 = 2m)")
		chunkSize  = flag.Int("chunk", 0, "trials per distributed lease (0 = adaptive sizing, or 16 with -cache; shapes cache keys)")
		amworker   = flag.Bool("amworker", false, "internal: serve leases over stdio (what -distribute spawns)")
	)
	flag.Parse()

	if *amworker {
		if err := distrib.ServeStdio(); err != nil {
			fatal(err)
		}
		return
	}
	if *list {
		printList()
		return
	}
	if *replayF != "" {
		replay(*replayF)
		return
	}

	spec := scenario.Spec{
		Protocol: scenario.Protocol(*protocol),
		N:        *n, T: *t, Lambda: *lambda, Delta: *delta, K: *k,
		TieBreak: scenario.TieBreak(*tiebreak),
		Pivot:    scenario.Pivot(*pivot),
		Attack:   scenario.Attack(*attack),
		Confirm:  *confirm, Inputs: *inputs,
	}
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fatal(err)
		}
		spec, err = scenario.ParseSpec(data)
		if err != nil {
			fatal(err)
		}
		spec.Sweep = nil
		spec.Trials = 0
	}
	// One seed reproduces everything: candidate sampling and the trials.
	spec.Seed = *seed

	rungs, err := parseRungs(*rungsF)
	if err != nil {
		fatal(err)
	}
	ws, cleanup, err := distrib.Connect(*distribute, *workersAdr)
	if err != nil {
		fatal(err)
	}
	defer cleanup()
	var cache *distrib.Cache
	if *cacheDir != "" {
		if cache, err = distrib.NewCache(*cacheDir, 0); err != nil {
			fatal(err)
		}
	}

	cfg := search.Config{
		Spec:      spec,
		Objective: search.Objective(*objective),
		Budget:    *budget, Seed: *seed, Rungs: rungs, Eta: *eta,
		Distrib: distrib.Config{
			Workers: ws, Cache: cache, LeaseTimeout: *leaseTO,
			ChunkSize: *chunkSize, InlineWorkers: *workers,
		},
	}
	start := time.Now()
	res, err := search.Run(cfg)
	if err != nil {
		fatal(err)
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
	case "text":
		printResult(res, spec, time.Since(start))
	default:
		fatal(fmt.Errorf("unknown format %q (want text | json)", *format))
	}

	if *promote != "" {
		ce, err := search.Counterexample(spec, res.Best.Candidate, res.Objective, res.Best.Trials)
		if err != nil {
			fatal(fmt.Errorf("promote: %w", err))
		}
		path, err := search.WriteCounterexample(ce, *promote)
		if err != nil {
			fatal(fmt.Errorf("promote: %w", err))
		}
		fmt.Printf("promoted: %s (seed %d, %s)\n", path, ce.Seed, ce.Name)
	}
}

// replay runs a committed counterexample and gates on reproduction: CI
// executes this against every promoted spec, so a counterexample that
// silently stops reproducing fails the build.
func replay(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	spec, err := scenario.ParseSpec(data)
	if err != nil {
		fatal(err)
	}
	hits, trials, why, err := search.Replay(spec)
	if err != nil {
		fatal(err)
	}
	if hits == 0 {
		fmt.Fprintf(os.Stderr, "amsearch: %s: no disagreement or invariant violation in %d trial(s) — the counterexample no longer reproduces\n",
			path, trials)
		os.Exit(1)
	}
	fmt.Printf("%s: %d/%d trial(s) reproduce (%s)\n", path, hits, trials, strings.Join(why, ", "))
}

// printResult renders the search trajectory and the winner, ending with
// a ready-to-paste reproduction line.
func printResult(res *search.Result, spec scenario.Spec, elapsed time.Duration) {
	fmt.Printf("== amsearch: %s n=%d t=%d λ=%g k=%d attack=%s ==\n",
		spec.Protocol, spec.N, spec.T, spec.Lambda, spec.K, attackName(spec))
	fmt.Printf("objective=%s metric=%s seed=%d budget=%d candidates=%d trials-used=%d elapsed=%v\n",
		res.Objective, res.MetricName, res.Seed, res.Budget, res.Candidates,
		res.TrialsUsed, elapsed.Round(time.Millisecond))
	schema := attackSchema(spec)
	for i, r := range res.Rungs {
		fmt.Printf("rung %d: trials=%-4d evaluated=%-4d kept=%-4d best score=%.4f  %s\n",
			i+1, r.Trials, r.Evaluated, r.Kept, r.Best.Score, r.Best.Text(schema))
	}
	b := res.Best
	fmt.Printf("best: score=%.4f %s=%.4f violations/trial=%.3g  (origin %s, index %d, %d trials)\n",
		b.Score, res.MetricName, b.Metric, b.Violations, b.Origin, b.Index, b.Trials)
	fmt.Printf("  %s\n", b.Text(schema))
	if st := res.Stats; st.Dispatched > 0 || st.FromCache > 0 {
		fmt.Printf("fleet: leases=%d dispatched=%d cache-hits=%d inline=%d retries=%d lost=%d\n",
			st.Leases, st.Dispatched, st.FromCache, st.Inline, st.Retries, st.LostWorker)
	}
	fmt.Printf("reproduce: amsearch -protocol %s -n %d -t %d -lambda %g -k %d -attack %s -objective %s -budget %d -seed %d\n",
		spec.Protocol, spec.N, spec.T, spec.Lambda, spec.K, attackName(spec),
		res.Objective, res.Budget, res.Seed)
}

// printList enumerates the search space: every parameterized attack with
// its schema, and the objectives.
func printList() {
	fmt.Println("searchable attacks:")
	for _, name := range scenario.ParameterizedAttacks() {
		fmt.Printf("  %-17s %s\n", name, scenario.Attacks.Doc(name))
		for _, line := range scenario.AttackParamLines(name) {
			fmt.Printf("      %s\n", line)
		}
	}
	fmt.Println()
	fmt.Println("objectives:")
	fmt.Printf("  %-17s maximize 1 - agreement rate (trials where correct nodes split)\n", search.Disagreement)
	fmt.Printf("  %-17s maximize the mean decision time in Δ\n", search.Latency)
}

// parseRungs parses "16,64,256" into the halving schedule.
func parseRungs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad -rungs %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func attackName(s scenario.Spec) string {
	if s.Attack == "" {
		return string(scenario.AttackSilent)
	}
	return string(s.Attack)
}

func attackSchema(s scenario.Spec) adversary.Schema {
	def, ok := scenario.Attacks.Lookup(attackName(s))
	if !ok {
		return nil
	}
	return def.Schema
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amsearch:", err)
	os.Exit(1)
}
