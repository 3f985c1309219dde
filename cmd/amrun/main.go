// Command amrun executes Byzantine-agreement protocol runs in the append
// memory: a single run, a batch of trials, or a declarative scenario
// sweep. Every protocol, tie-break, pivot, attack, access-model and
// metric name comes from the internal/scenario registries — `amrun -list`
// enumerates them.
//
// Examples:
//
//	amrun -protocol dag -n 10 -t 4 -lambda 1 -k 41 -attack private-chain
//	amrun -protocol chain -tiebreak random -n 10 -t 4 -lambda 1 -k 41 -attack tiebreak -trials 50
//	amrun -protocol sync -n 8 -t 3 -rounds 2 -inputs split:3 -attack delayed-chain
//	amrun -protocol dag -n 12 -t 4 -lambda 0.5 -k 41 -trials 20 -sweep attack=silent,private-chain,private-fork -metrics ok,byz-prefix-share
//	amrun -spec examples/scenarios/rates_private_chain.json
//	amrun -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/appendmem"
	"repro/internal/distrib"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/trace"
)

// sweepFlags collects repeatable -sweep axis=v1,v2,... flags.
type sweepFlags []scenario.Axis

func (s *sweepFlags) String() string { return fmt.Sprintf("%d axes", len(*s)) }

func (s *sweepFlags) Set(v string) error {
	ax, err := scenario.ParseAxis(v)
	if err != nil {
		return err
	}
	*s = append(*s, ax)
	return nil
}

func main() {
	var sweeps sweepFlags
	spec := scenario.Spec{
		Protocol: scenario.Dag, N: 10, Lambda: 0.5, Delta: 1, K: 21,
		TieBreak: scenario.TieRandom, Pivot: scenario.PivotGhost, Attack: scenario.AttackSilent,
		Inputs: "same", Seed: 1, Trials: 1,
	}
	specFlags(flag.CommandLine, &spec)
	var (
		attackPar = flag.String("attack-params", "", "attack template parameter overrides as name=value,name=value (see -list for each attack's schema)")
		topoPar   = flag.String("topology-params", "", "topology generator parameters as k=v,k=v (e.g. k=2,beta=0.3)")
		verbose   = flag.Bool("v", false, "print per-node decisions")
		traceN    = flag.Int("trace", 0, "print the last N trace events of the run")
		timing    = flag.Bool("timing", false, "report sweep wall clock and checkpoint prefix reuse on stderr")

		list     = flag.Bool("list", false, "enumerate the registries (protocols, tie-breaks, pivots, attacks, access models, metrics, sweep axes) and exit")
		specPath = flag.String("spec", "", "run a JSON scenario spec (explicitly-set flags override its fields)")
		metricsF = flag.String("metrics", "", "comma-separated metric extractors for sweep output (see -list metrics)")
		format   = flag.String("format", "text", "sweep output format: text | md | json | csv")
		out      = flag.String("o", "", "write sweep output to file instead of stdout")
		workers  = flag.Int("workers", 0, "trial parallelism (0 = GOMAXPROCS)")

		distribute = flag.Int("distribute", 0, "spawn this many local worker processes and shard sweep trials across them")
		workersAdr = flag.String("workers-addr", "", "comma-separated amworker TCP addresses to shard sweep trials across")
		cacheDir   = flag.String("cache", "", "content-addressed lease result cache directory (distributed sweeps)")
		leaseTO    = flag.Duration("lease-timeout", 0, "per-lease worker timeout before reassignment (0 = 2m)")
		chunkSize  = flag.Int("chunk", 0, "trials per distributed lease (0 = adaptive sizing, or 16 with -cache; shapes cache keys)")
		amworker   = flag.Bool("amworker", false, "internal: serve leases over stdio (what -distribute spawns)")
	)
	flag.Var(&sweeps, "sweep", "sweep axis as axis=v1,v2,... (repeatable; see -list for axes)")
	flag.Parse()

	// Worker mode: the re-exec'd child of a -distribute run. Serve leases
	// over stdin/stdout until the coordinator hangs up.
	if *amworker {
		if err := distrib.ServeStdio(); err != nil {
			fatal(err)
		}
		return
	}

	// -list is a query, not a run.
	if *list {
		printList()
		return
	}

	// Fail fast on misspelled registry names: the error enumerates what
	// exists instead of surfacing later from a half-built spec.
	if spec.Access != "" {
		if _, ok := scenario.AccessModels.Lookup(string(spec.Access)); !ok {
			fatal(fmt.Errorf("unknown access model %q (have %s)", spec.Access, scenario.AccessModels.Help()))
		}
	}
	if spec.Topology != "" {
		if _, ok := scenario.Topologies.Lookup(string(spec.Topology)); !ok {
			fatal(fmt.Errorf("unknown topology %q (have %s)", spec.Topology, scenario.Topologies.Help()))
		}
	}
	topoParams, err := scenario.ParseTopologyParams(*topoPar)
	if err != nil {
		fatal(err)
	}
	attackParams, err := scenario.ParseAttackParams(*attackPar)
	if err != nil {
		fatal(err)
	}

	spec.AttackParams, spec.TopologyParams = attackParams, topoParams

	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fatal(err)
		}
		fileSpec, err := scenario.ParseSpec(data)
		if err != nil {
			fatal(err)
		}
		// The file is authoritative; flags the user explicitly set on the
		// command line override its fields: replay them onto a flag set
		// bound to the file's spec.
		fs := flag.NewFlagSet("spec", flag.ContinueOnError)
		specFlags(fs, &fileSpec)
		flag.Visit(func(f *flag.Flag) {
			switch {
			case fs.Lookup(f.Name) != nil:
				if err := fs.Set(f.Name, f.Value.String()); err != nil {
					fatal(err)
				}
			case f.Name == "attack-params":
				fileSpec.AttackParams = attackParams
			case f.Name == "topology-params":
				fileSpec.TopologyParams = topoParams
			}
		})
		spec = fileSpec
	}
	spec.Sweep = append(spec.Sweep, sweeps...)
	if *metricsF != "" {
		spec.Metrics = splitList(*metricsF)
	}

	// A spec file, a sweep, an explicit metric set or a distributed flag
	// selects table mode; bare flag runs keep the classic single-run /
	// trials output.
	distributed := *distribute > 0 || *workersAdr != "" || *cacheDir != ""
	if *specPath != "" || len(spec.Sweep) > 0 || len(spec.Metrics) > 0 || distributed {
		if distributed {
			runDistributed(spec, distribOptions{
				spawn: *distribute, addrs: *workersAdr,
				cacheDir: *cacheDir, leaseTimeout: *leaseTO,
				chunk: *chunkSize,
			}, *format, *out, *timing)
			return
		}
		runSweep(spec, *workers, *format, *out, *timing)
		return
	}

	if spec.Trials > 1 {
		spec.Metrics = []string{"ok", "agreement", "validity", "termination"}
		res, err := scenario.RunSpec(spec, scenario.Options{Workers: *workers})
		if err != nil {
			fatal(err)
		}
		m := res.Points[0].Metrics
		fmt.Printf("%s n=%d t=%d λ=%g k=%d attack=%s: ok %d/%d (agreement %d, validity %d, termination %d)\n",
			spec.Protocol, spec.N, spec.T, spec.Lambda, spec.K, attackName(spec),
			m[0].Count, spec.Trials, m[1].Count, m[2].Count, m[3].Count)
		return
	}

	runOne(spec, *verbose, *traceN)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amrun:", err)
	os.Exit(1)
}

func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

func attackName(s scenario.Spec) scenario.Attack {
	if s.Attack == "" {
		return scenario.AttackSilent
	}
	return s.Attack
}

// specFlags defines a flag for each spec knob on fs, bound to its field in
// s with s's current value as the default.
func specFlags(fs *flag.FlagSet, s *scenario.Spec) {
	fs.StringVar((*string)(&s.Protocol), "protocol", string(s.Protocol), scenario.Protocols.Help())
	fs.IntVar(&s.N, "n", s.N, "total nodes")
	fs.IntVar(&s.T, "t", s.T, "Byzantine nodes (the last t ids)")
	fs.Float64Var(&s.Lambda, "lambda", s.Lambda, "token rate per node per Δ (randomized protocols)")
	fs.Float64Var(&s.Delta, "delta", s.Delta, "synchrony bound Δ")
	fs.IntVar(&s.K, "k", s.K, "decision threshold (randomized protocols)")
	fs.IntVar(&s.Rounds, "rounds", s.Rounds, "rounds for sync protocol (0 = t+1)")
	fs.StringVar((*string)(&s.TieBreak), "tiebreak", string(s.TieBreak), "chain tie-breaking: "+scenario.TieBreaks.Help())
	fs.StringVar((*string)(&s.Pivot), "pivot", string(s.Pivot), "dag pivot rule: "+scenario.Pivots.Help())
	fs.StringVar((*string)(&s.Attack), "attack", string(s.Attack), scenario.Attacks.Help())
	fs.IntVar(&s.Confirm, "confirm", s.Confirm, "chain/dag confirmation depth")
	fs.IntVar(&s.Crashes, "crashes", s.Crashes, "crash-faulty correct nodes")
	fs.StringVar(&s.Inputs, "inputs", s.Inputs, `inputs: same | same:-1 | split:<ones> | random`)
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "base seed")
	fs.IntVar(&s.Trials, "trials", s.Trials, "number of runs (seeds seed..seed+trials-1)")
	fs.BoolVar(&s.FreshReads, "fresh-reads", s.FreshReads, "ablation: honest nodes read at grant time (no Δ staleness)")
	fs.StringVar((*string)(&s.Access), "access", string(s.Access), "token authority: "+scenario.AccessModels.Help()+" (default poisson)")
	fs.StringVar((*string)(&s.Topology), "topology", string(s.Topology), "network topology: "+scenario.Topologies.Help()+" (default complete)")
	fs.Float64Var(&s.LinkDelay, "link-delay", s.LinkDelay, "base per-link latency in Δ (0 = default 0.5)")
	fs.Float64Var(&s.LinkJitter, "link-jitter", s.LinkJitter, "per-link delay spread fraction in [0,1) (0 = model default)")
	fs.StringVar(&s.DelayDist, "delay-dist", s.DelayDist, "per-link delay distribution: "+strings.Join(topology.DelayKinds(), " | ")+" (default fixed)")
	fs.IntVar(&s.StallAtSize, "stall-at", s.StallAtSize, "inject async blackout once memory reaches this size (0 = off)")
	fs.Float64Var(&s.StallFor, "stall-for", s.StallFor, "blackout duration in Δ (0 = default 8)")
	fs.Float64Var(&s.AsyncDelayMax, "async-delay-max", s.AsyncDelayMax, "honest token-to-append delay bound in Δ (0 = off)")
	fs.IntVar(&s.Window, "window", s.Window, "bounded-memory horizon: retire message prefixes older than this many ids below every reachability floor (0 = unbounded)")
	fs.BoolVar(&s.Checkpoint, "checkpoint", s.Checkpoint, "snapshot each trial at first decision and reuse the prefix across confirm-sweep points")
}

// runSweep executes the spec through the scenario layer and renders the
// point table in the requested format.
func runSweep(spec scenario.Spec, workers int, format, out string, timing bool) {
	start := time.Now()
	res, err := scenario.RunSpec(spec, scenario.Options{Workers: workers})
	if err != nil {
		fatal(err)
	}
	if timing {
		fmt.Fprintf(os.Stderr, "amrun: sweep %v", time.Since(start).Round(time.Millisecond))
		if res.Reuse != nil {
			fmt.Fprintf(os.Stderr, "  checkpoints captured=%d resumed=%d", res.Reuse.Captured, res.Reuse.Resumed)
		}
		fmt.Fprintln(os.Stderr)
	}
	renderSweep(res, format, out)
}

// distribOptions carries the distributed-execution flags.
type distribOptions struct {
	spawn        int    // -distribute: local worker processes to fork
	addrs        string // -workers-addr: remote amworker TCP addresses
	cacheDir     string // -cache: lease result cache directory
	leaseTimeout time.Duration
	chunk        int // -chunk: trials per lease (0 = adaptive / default)
}

// runDistributed shards the sweep's trials across worker processes via
// internal/distrib and renders the merged result — byte-identical to the
// same sweep run in-process at the same seed.
func runDistributed(spec scenario.Spec, o distribOptions, format, out string, timing bool) {
	ws, closeWorkers, err := distrib.Connect(o.spawn, o.addrs)
	if err != nil {
		fatal(err)
	}
	defer closeWorkers()

	var cache *distrib.Cache
	if o.cacheDir != "" {
		if cache, err = distrib.NewCache(o.cacheDir, 0); err != nil {
			fatal(err)
		}
	}

	start := time.Now()
	res, stats, err := distrib.Run(spec, distrib.Config{
		Workers: ws, Cache: cache, LeaseTimeout: o.leaseTimeout,
		ChunkSize: o.chunk,
	})
	if err != nil {
		fatal(err)
	}
	if timing {
		fmt.Fprintf(os.Stderr,
			"amrun: sweep %v  workers=%d leases=%d dispatched=%d cache-hits=%d inline=%d retries=%d lost=%d\n",
			time.Since(start).Round(time.Millisecond), len(ws),
			stats.Leases, stats.Dispatched, stats.FromCache, stats.Inline, stats.Retries, stats.LostWorker)
	}
	renderSweep(res, format, out)
}

// renderSweep writes the point table in the requested format — shared by
// the in-process and distributed paths so their bytes can only agree.
func renderSweep(res *scenario.SweepResult, format, out string) {
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	switch format {
	case "text":
		fmt.Fprint(w, report.TableText(experiments.SweepTable(res)))
	case "md":
		fmt.Fprint(w, report.TableMarkdown(experiments.SweepTable(res)))
	case "json":
		if err := report.WriteJSON(w, []*experiments.Result{experiments.SweepResult(res)}); err != nil {
			fatal(err)
		}
	case "csv":
		if err := report.WriteCSV(w, []*experiments.Result{experiments.SweepResult(res)}); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown format %q (want text | md | json | csv)", format))
	}
}

// runOne preserves amrun's classic single-run report.
func runOne(spec scenario.Spec, verbose bool, traceN int) {
	var rec *trace.Recorder
	if traceN > 0 {
		rec = trace.New()
	}
	b, err := scenario.Bind(spec)
	if err != nil {
		fatal(err)
	}
	r, err := b.RunTraced(spec.Seed, rec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("protocol    %s (attack %s)\n", spec.Protocol, attackName(spec))
	fmt.Printf("nodes       n=%d t=%d crashes=%d\n", spec.N, spec.T, spec.Crashes)
	fmt.Printf("verdict     agreement=%v validity=%v termination=%v\n",
		r.Verdict.Agreement, r.Verdict.Validity, r.Verdict.Termination)
	fmt.Printf("appends     total=%d byzantine=%d\n", r.TotalAppends, r.ByzAppends)
	fmt.Printf("duration    %.3f Δ\n", float64(r.Duration))
	if verbose {
		for i, d := range r.Decision {
			role := r.Roster.Role(appendmem.NodeID(i))
			status := "undecided"
			if r.Decided[i] {
				status = fmt.Sprintf("decided %+d", d)
			}
			fmt.Printf("  node %2d  %-9s input %+d  %s\n", i, role, r.Inputs[i], status)
		}
	}
	if rec != nil {
		fmt.Printf("trace (%d events total):\n%s", rec.Len(), rec.Render(traceN))
	}
	if !r.Verdict.OK() {
		os.Exit(2)
	}
}

// printList enumerates the registries, one line per name with its doc.
func printList() {
	section := func(title string, names []string, doc func(string) string) {
		fmt.Printf("%s:\n", title)
		for _, name := range names {
			fmt.Printf("  %-17s %s\n", name, doc(name))
		}
		fmt.Println()
	}
	section("protocols", scenario.Protocols.Names(), scenario.Protocols.Doc)
	section("tie-breaks (chain)", scenario.TieBreaks.Names(), scenario.TieBreaks.Doc)
	section("pivots (dag)", scenario.Pivots.Names(), scenario.Pivots.Doc)
	fmt.Printf("attacks:\n")
	for _, name := range scenario.Attacks.Names() {
		fmt.Printf("  %-17s [%s] %s\n", name, attackScope(name), scenario.Attacks.Doc(name))
		for _, line := range scenario.AttackParamLines(name) {
			fmt.Printf("      %s\n", line)
		}
	}
	fmt.Println()
	section("access models", scenario.AccessModels.Names(), scenario.AccessModels.Doc)
	section("topologies", scenario.Topologies.Names(), scenario.Topologies.Doc)
	fmt.Printf("delay distributions:\n  %s\n\n", strings.Join(topology.DelayKinds(), ", "))
	section("metrics", scenario.Metrics.Names(), scenario.Metrics.Doc)
	fmt.Printf("sweep axes:\n  %s\n", strings.Join(scenario.SweepAxes(), ", "))
}

// attackScope renders which protocols an attack applies to.
func attackScope(name string) string {
	var ps []string
	for _, p := range scenario.Protocols.Names() {
		if p == string(scenario.Sync) {
			for _, s := range scenario.SyncAttacks() {
				if s == name {
					ps = append(ps, p)
				}
			}
			continue
		}
		for _, a := range scenario.AttacksFor(scenario.Protocol(p)) {
			if a == name {
				ps = append(ps, p)
			}
		}
	}
	return strings.Join(ps, " ")
}
