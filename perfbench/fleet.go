package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/adversary"
	"repro/internal/distrib"
	"repro/internal/scenario"
	"repro/internal/search"
)

// fleetSpec is the base scenario of the search-fleet workload, an
// amsearch run over two spawned worker processes with a fresh lease cache.
var fleetSpec = scenario.Spec{
	Name: "search-fleet", Protocol: scenario.Chain,
	N: 9, T: 3, Lambda: 0.5, Delta: 1, K: 41,
	TieBreak: scenario.TieAdversarial, Attack: scenario.AttackFork, Inputs: "same",
}

const (
	fleetBudget  = 19200
	fleetWorkers = 2
	fleetEta     = search.DefaultEta
	// fleetSearches is how many searches one unit runs, at seeds
	// s + j·seedStride. Which candidates survive the rungs, and so what a
	// search costs, differs by several percent from seed to seed; a unit
	// averages over two searches.
	fleetSearches = 2
	// fleetWarm is the trial count of the set-up's warm-up sweep.
	fleetWarm = 64
	// fleetSample is how many trials of the winning candidate are traced.
	fleetSample = 64
)

var fleetRungs = []int{16, 64, 256}

// fleetRefs are the digests of a unit's search results (their
// distrib.Stats zeroed) at refSeed.
var fleetRefs = [fleetSearches]string{
	"9cc38cc98bc645583ba470f1f8678b79bb1534ad5682619cc98674e5601a8f86",
	"bd668ff0eba58f0db2963be52f7e7396d4a729373a62371005e65696ca0762d9",
}

// fleet is one spawned set of worker processes.
type fleet struct {
	procs []*distrib.Proc
}

// spawnFleet starts the workers, each limited to one thread, and
// completes their hello.
func spawnFleet() (*fleet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	procs, err := distrib.SpawnN(fleetWorkers, []string{exe, "--worker"}, append(os.Environ(), "GOMAXPROCS=1"))
	if err != nil {
		return nil, err
	}
	return &fleet{procs: procs}, nil
}

func (f *fleet) transports() []distrib.Transport {
	ts := make([]distrib.Transport, len(f.procs))
	for i, p := range f.procs {
		ts[i] = p
	}
	return ts
}

// close closes every transport and waits for every worker to exit.
func (f *fleet) close() {
	for _, p := range f.procs {
		p.Close()
	}
}

func fleetConfig(seed uint64, f *fleet) (search.Config, error) {
	spec := fleetSpec
	spec.Seed = seed
	cache, err := distrib.NewCache("", 0)
	if err != nil {
		return search.Config{}, err
	}
	return search.Config{
		Spec: spec, Objective: search.Disagreement, Budget: fleetBudget,
		Seed: seed, Rungs: fleetRungs, Eta: fleetEta,
		Distrib: distrib.Config{Workers: f.transports(), Cache: cache},
	}, nil
}

// fleetSetup spawns a fleet, binds the base spec and warms this
// process's trial pool (the inline fallback runs on it) with a short
// in-process sweep of the base spec. It returns the fleet and the set-up
// time in seconds.
func fleetSetup(seed uint64) (*fleet, float64, error) {
	t0 := time.Now()
	f, err := spawnFleet()
	if err != nil {
		return nil, 0, err
	}
	spec := fleetSpec
	spec.Seed = seed
	spec.Trials = fleetWarm
	if _, err := scenario.RunSpec(spec, scenario.Options{Workers: threads}); err != nil {
		f.close()
		return nil, 0, err
	}
	return f, time.Since(t0).Seconds(), nil
}

// resultDigest identifies a search outcome. The distrib.Stats are left
// out: they describe the fleet, not the result, and are checked as exact
// counters instead.
func resultDigest(res *search.Result) (string, error) {
	c := *res
	c.Stats = distrib.Stats{}
	return digest(&c)
}

// checkFleetRef compares the digest of the j-th search of a unit with its
// reference at refSeed.
func (r *run) checkFleetRef(j int, d string) {
	if r.seed == refSeed {
		r.check(d == fleetRefs[j], "search-fleet: search %d digest %s at seed %d, want reference %s", j, d, refSeed, fleetRefs[j])
	}
}

// fleetUntraced measures units of fleetSearches whole searches. Each
// search gets its own freshly spawned fleet (set-up, done before the
// unit starts; idle workers wait on their stdin) and a fresh cache; the
// unit runs the searches one after another and closes the fleets.
func fleetUntraced(r *run) error {
	// Set up a few extra times so setup_s is a median of more than the
	// per-search set-ups.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		f, setup, err := fleetSetup(r.seed)
		if err != nil {
			return err
		}
		f.close()
		setups = append(setups, setup)
	}
	var units []unit
	var first []string
	var stats []distrib.Stats
	var ops int
	start := time.Now()
	for len(units) < minUnits || time.Since(start) < r.budget {
		var fleets []*fleet
		closeAll := func() {
			for _, f := range fleets {
				f.close()
			}
		}
		cfgs := make([]search.Config, fleetSearches)
		for j := range cfgs {
			seed := r.seed + uint64(j)*seedStride
			f, setup, err := fleetSetup(seed)
			if err != nil {
				closeAll()
				return err
			}
			fleets = append(fleets, f)
			setups = append(setups, setup)
			if cfgs[j], err = fleetConfig(seed, f); err != nil {
				closeAll()
				return err
			}
		}
		res := make([]*search.Result, fleetSearches)
		u, err := measure(func() error {
			defer closeAll()
			for j, cfg := range cfgs {
				var err error
				if res[j], err = search.Run(cfg); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		units = append(units, u)
		for j, rs := range res {
			d, err := resultDigest(rs)
			if err != nil {
				return err
			}
			if len(first) == j {
				first, stats = append(first, d), append(stats, rs.Stats)
				ops += rs.TrialsUsed
			}
			r.check(d == first[j], "search-fleet: search %d differs between two executions at seed %d", j, r.seed)
			r.check(rs.Stats == stats[j], "search-fleet: fleet counters of search %d differ between two executions: %+v vs %+v",
				j, stats[j], rs.Stats)
		}
	}
	for j, d := range first {
		r.checkFleetRef(j, d)
	}
	r.recordUnits(setups, units, ops)
	// An operation here is one lease dispatch; a lost dispatch fails even
	// though the inline fallback recovers its result.
	var dispatched, lost int
	for _, st := range stats {
		dispatched += st.Dispatched
		lost += st.Retries
	}
	ok := 1.0
	if dispatched > 0 {
		ok = float64(dispatched-lost) / float64(dispatched)
	}
	r.set("ok_frac", ok*r.okFrac())
	return nil
}

// fleetTraced produces the distrib and search rows: spawn cost, one
// search.Run, and a replay of the same search that times every
// distrib.Run it makes and must reach the same result. search.self_s is
// the replay's time outside distrib.Run: candidate generation and rung
// bookkeeping, the part of search.Run that is not evaluation. A sample
// of the winning candidate's trials is then traced for the rule and
// adversary rows.
func fleetTraced(r *run) error {
	var spawns []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		f, err := spawnFleet()
		if err != nil {
			return err
		}
		spawns = append(spawns, ms(time.Since(t0)))
		f.close()
	}
	r.set("distrib.spawn_ms", median(spawns))
	defer func() { r.set("distrib.worker_rss_mb", float64(childPeakRSS())/(1<<20)) }()

	f, _, err := fleetSetup(r.seed)
	if err != nil {
		return err
	}
	cfg, err := fleetConfig(r.seed, f)
	if err != nil {
		f.close()
		return err
	}
	res, err := search.Run(cfg)
	f.close()
	if err != nil {
		return err
	}

	if f, _, err = fleetSetup(r.seed); err != nil {
		return err
	}
	if cfg, err = fleetConfig(r.seed, f); err != nil {
		f.close()
		return err
	}
	rep, err := replaySearch(cfg)
	f.close()
	if err != nil {
		return err
	}
	r.check(rep.matches(res), "search-fleet: the replayed search diverged from search.Run at seed %d", r.seed)
	d, err := resultDigest(res)
	if err != nil {
		return err
	}
	r.checkFleetRef(0, d)
	r.attempted += int64(res.TrialsUsed)

	st := rep.stats
	var inRuns time.Duration
	runs := make([]float64, len(rep.runs))
	for i, d := range rep.runs {
		inRuns += d
		runs[i] = ms(d)
	}
	r.set("distrib.run_ms_p50", median(runs))
	r.set("distrib.leases", float64(st.Leases))
	r.set("distrib.dispatched", float64(st.Dispatched))
	if st.Dispatched > 0 {
		r.set("distrib.lost_frac", float64(st.Retries)/float64(st.Dispatched))
	}
	if st.Leases > 0 {
		r.set("distrib.inline_frac", float64(st.Inline)/float64(st.Leases))
		r.set("distrib.cache_hit_frac", float64(st.FromCache)/float64(st.Leases))
	}
	r.set("search.self_s", (rep.wall - inRuns).Seconds())
	r.set("search.candidates", float64(res.Candidates))
	r.set("search.trials_executed", float64(rep.executed))

	// Trace the winner's first trials.
	spec := cfg.Spec
	if len(res.Best.Params) > 0 {
		spec.AttackParams = res.Best.Params
	}
	b, err := scenario.Bind(spec)
	if err != nil {
		return err
	}
	sample := make([]sampleTrial, fleetSample)
	var untraced time.Duration
	var lat []float64
	for i := range sample {
		seed := spec.Seed + uint64(i)
		t := time.Now()
		ref, err := b.Run(seed)
		d := time.Since(t)
		if err != nil {
			return err
		}
		untraced += d
		lat = append(lat, ms(d))
		sample[i] = sampleTrial{bound: b, seed: seed, ref: ref}
	}
	layers, tracedMean, err := traceSample(r, spec, sample)
	if err != nil {
		return err
	}
	layers.record(r)
	r.attempted += int64(len(sample))
	r.set("scenario.trial_ms_p50", quantile(lat, 0.5))
	r.set("scenario.trial_ms_p99", quantile(lat, 0.99))
	r.set("trace.overhead_frac", float64(tracedMean)/float64(untraced/time.Duration(len(sample)))-1)
	return nil
}

// searchReplay is the outcome of replaySearch.
type searchReplay struct {
	candidates int
	trialsUsed int
	executed   int // trials actually simulated (cache hits excluded)
	best       search.Eval
	rungs      []search.Rung
	stats      distrib.Stats
	runs       []time.Duration // one per distrib.Run, in call order
	wall       time.Duration   // the whole replay
}

// matches reports whether the replay reached search.Run's result.
func (s *searchReplay) matches(res *search.Result) bool {
	if s.candidates != res.Candidates || s.trialsUsed != res.TrialsUsed || s.stats != res.Stats ||
		s.best.Index != res.Best.Index || s.best.Metric != res.Best.Metric || len(s.rungs) != len(res.Rungs) {
		return false
	}
	for i, rg := range s.rungs {
		got := res.Rungs[i]
		if rg.Trials != got.Trials || rg.Evaluated != got.Evaluated || rg.Kept != got.Kept || rg.Best.Index != got.Best.Index {
			return false
		}
	}
	return true
}

// replaySearch repeats search.Run's successive halving from the
// benchmark's side of the API — the same candidate pool from
// search.Generate, one distrib.Run per candidate per rung, the same
// (score, index) survival order — so that each distrib.Run can be timed.
func replaySearch(cfg search.Config) (*searchReplay, error) {
	start := time.Now()
	spec := cfg.Spec
	spec.Metrics = []string{"agreement", "violations"}
	def, ok := scenario.Attacks.Lookup(string(spec.Attack))
	if !ok || def.Schema == nil {
		return nil, fmt.Errorf("attack %q has no parameter schema", spec.Attack)
	}
	unitCost, div := 0.0, 1.0
	for _, rg := range cfg.Rungs {
		unitCost += float64(rg) / div
		div *= float64(cfg.Eta)
	}
	pool := max(2, int(float64(cfg.Budget)/unitCost))
	cands := search.Generate(def.Schema, presetAssignments(spec, def.Schema), pool, cfg.Seed)

	out := &searchReplay{candidates: len(cands)}
	active := make([]search.Eval, len(cands))
	for i, c := range cands {
		active[i] = search.Eval{Candidate: c}
	}
	for ri, rung := range cfg.Rungs {
		for i := range active {
			sp := spec
			sp.Trials = rung
			if len(active[i].Params) > 0 {
				sp.AttackParams = active[i].Params
			}
			t0 := time.Now()
			res, st, err := distrib.Run(sp, cfg.Distrib)
			out.runs = append(out.runs, time.Since(t0))
			if err != nil {
				return nil, err
			}
			out.stats.Points += st.Points
			out.stats.Leases += st.Leases
			out.stats.FromCache += st.FromCache
			out.stats.Dispatched += st.Dispatched
			out.stats.Inline += st.Inline
			out.stats.Retries += st.Retries
			out.stats.LostWorker += st.LostWorker
			// With a cache every lease is a fixed-size chunk.
			out.executed += rung - st.FromCache*distrib.DefaultChunkSize
			out.trialsUsed += rung
			agreement := res.Points[0].Metrics[0].Value
			active[i].Trials = rung
			active[i].Metric = agreement
			active[i].Score = search.Disagreement.Score(agreement)
		}
		sort.SliceStable(active, func(i, j int) bool {
			if active[i].Score != active[j].Score {
				return active[i].Score > active[j].Score
			}
			return active[i].Index < active[j].Index
		})
		keep := len(active)
		if ri < len(cfg.Rungs)-1 {
			keep = max(1, (len(active)+cfg.Eta-1)/cfg.Eta)
		}
		out.rungs = append(out.rungs, search.Rung{Trials: rung, Evaluated: len(active), Kept: keep, Best: active[0]})
		active = active[:keep]
	}
	out.best = active[0]
	out.wall = time.Since(start)
	return out, nil
}

// presetAssignments lists the explicit parameters of every other
// registered preset of the same template, the warm starts search.Run
// seeds its pool with.
func presetAssignments(spec scenario.Spec, schema adversary.Schema) []map[string]scenario.Value {
	var out []map[string]scenario.Value
	for _, name := range scenario.ParameterizedAttacks() {
		if scenario.Attack(name) == spec.Attack {
			continue
		}
		def, ok := scenario.Attacks.Lookup(name)
		if !ok || !sameSchema(def.Schema, schema) || !appliesTo(def, spec.Protocol) {
			continue
		}
		sp := spec
		sp.Attack = scenario.Attack(name)
		sp.AttackParams = nil
		if m, err := scenario.ExplicitAttackParams(sp); err == nil {
			out = append(out, m)
		}
	}
	return out
}

func sameSchema(a, b adversary.Schema) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			return false
		}
	}
	return true
}

func appliesTo(def scenario.AttackDef, p scenario.Protocol) bool {
	if len(def.Protocols) == 0 {
		return def.New != nil
	}
	for _, ap := range def.Protocols {
		if ap == p {
			return true
		}
	}
	return false
}
