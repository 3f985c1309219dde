package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// refSeed is the seed whose outputs are pinned by reference digests.
const refSeed = 1

// sweepLoad is a trial workload: one scenario.RunSpec over a sweep, on
// the shared worker pool.
type sweepLoad struct {
	name   string
	base   scenario.Spec // everything but the seed
	graphs int           // > 0 adds a seed axis of this many graph seeds
	ref    string        // digest of the SweepResult at refSeed
	warm   int           // trials per point in the warm-up sweep
	sample int           // traced trials per point
}

var dagSweep = sweepLoad{
	name: "dag-sweep",
	base: scenario.Spec{
		Name: "dag-sweep", Protocol: scenario.Dag, Pivot: scenario.PivotGhost,
		N: 32, T: 10, K: 41, Attack: scenario.AttackPrivateChain, Trials: 200,
		Sweep: []scenario.Axis{lambdaAxis(0.5, 1, 2)},
	},
	ref:  "75ce080386308a9ccdfd6dfbe387ca83d486002b4497ad64144542db522dd8ea",
	warm: 32, sample: 48,
}

// chainTopology sweeps eight graphs per unit: the seed picks the
// small-world graph as well as the trials, and one graph's cost differs
// from the next by several percent, so a unit averages over graphs.
var chainTopology = sweepLoad{
	name: "chain-topology",
	base: scenario.Spec{
		Name: "chain-topology", Protocol: scenario.Chain,
		N: 32, T: 6, K: 21, Attack: scenario.AttackFork,
		Topology: scenario.TopoSmallWorld, Trials: 16,
		Sweep: []scenario.Axis{lambdaAxis(0.1, 0.2, 0.4)},
	},
	graphs: 8,
	ref:    "5af5ec16b1e004f718df5f22d5011c6add04fb0f767c6cb55da00a7ffc567539",
	warm:   1, sample: 2,
}

func lambdaAxis(vals ...float64) scenario.Axis {
	ax := scenario.Axis{Name: "lambda"}
	for _, v := range vals {
		ax.Values = append(ax.Values, scenario.Value{Num: v})
	}
	return ax
}

// seedStride separates the seeds a unit derives from the workload seed
// (graphs here, searches on search-fleet), so their trial seeds (derived
// seed + trial index) never overlap.
const seedStride = 1 << 20

func (s *sweepLoad) spec(seed uint64) scenario.Spec {
	sp := s.base
	sp.Seed = seed
	if s.graphs > 0 {
		ax := scenario.Axis{Name: "seed"}
		for j := 0; j < s.graphs; j++ {
			ax.Values = append(ax.Values, scenario.Value{Num: float64(seed + uint64(j)*seedStride)})
		}
		sp.Sweep = append(append([]scenario.Axis(nil), sp.Sweep...), ax)
	}
	return sp
}

// bindAll binds every point of the spec's sweep.
func bindAll(spec scenario.Spec) ([]*scenario.Bound, error) {
	points, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	bounds := make([]*scenario.Bound, len(points))
	for i, pt := range points {
		if bounds[i], err = scenario.Bind(pt.Spec); err != nil {
			return nil, err
		}
	}
	return bounds, nil
}

// untraced measures whole sweeps. Set-up binds every point and runs a
// small warm-up sweep (pool goroutines started, per-worker scratch
// grown); each unit is one RunSpec, whose result must repeat exactly
// across units and match the reference digest at refSeed.
func (s *sweepLoad) untraced(r *run) error {
	spec := s.spec(r.seed)
	warm := spec
	warm.Trials = s.warm
	var points int
	setups, err := timeReps(setupReps, func() error {
		bounds, err := bindAll(spec)
		points = len(bounds)
		if err != nil {
			return err
		}
		_, err = scenario.RunSpec(warm, scenario.Options{Workers: threads})
		return err
	})
	if err != nil {
		return err
	}
	var first string
	units, err := repeatUntil(r.budget, func() error {
		res, err := scenario.RunSpec(spec, scenario.Options{Workers: threads})
		if err != nil {
			return err
		}
		d, err := digest(res)
		if err != nil {
			return err
		}
		if first == "" {
			first = d
		}
		r.check(d == first, "%s: sweep result differs between two executions at seed %d", s.name, r.seed)
		return nil
	})
	if err != nil {
		return err
	}
	if r.seed == refSeed {
		r.check(first == s.ref, "%s: sweep digest %s at seed %d, want reference %s", s.name, first, refSeed, s.ref)
	}
	r.recordUnits(setups, units, points*spec.Trials)
	r.set("ok_frac", r.okFrac())
	return nil
}

// traced produces the per-layer table of a trial workload: Bind cost,
// pool occupancy over one sweep, single-thread trial latency, and the
// traced sample (rule, adversary, harness self time, substrate replay).
func (s *sweepLoad) traced(r *run) error {
	spec := s.spec(r.seed)
	var bounds []*scenario.Bound
	var binds []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		if bounds, err = bindAll(spec); err != nil {
			return err
		}
		binds = append(binds, us(time.Since(t0))/float64(len(bounds)))
	}
	r.set("scenario.bind_us", median(binds))

	// Pool occupancy: the sweep's trials through runner.Trials, point by
	// point as RunSpec fans them out, timing each trial body.
	var busy atomic.Int64
	t0 := time.Now()
	for _, b := range bounds {
		runner.Trials(spec.Trials, b.Spec().Seed, threads, func(seed uint64) bool {
			t := time.Now()
			_, err := b.Run(seed)
			busy.Add(int64(time.Since(t)))
			return err == nil
		})
	}
	wall := time.Since(t0)
	r.set("runner.pool_idle_frac", 1-float64(busy.Load())/(float64(wall)*threads))

	// The traced sample: the first s.sample seeds of every point, first
	// untraced on this goroutine (the references and the single-thread
	// latency), then traced.
	var sample []sampleTrial
	var lat []float64
	var untraced time.Duration
	for _, b := range bounds {
		graph, err := specGraph(b.Spec())
		if err != nil {
			return err
		}
		for i := 0; i < s.sample; i++ {
			seed := b.Spec().Seed + uint64(i)
			t := time.Now()
			res, err := b.Run(seed)
			d := time.Since(t)
			if err != nil {
				return err
			}
			untraced += d
			lat = append(lat, ms(d))
			sample = append(sample, sampleTrial{bound: b, graph: graph, seed: seed, ref: res})
		}
	}
	layers, tracedMean, err := traceSample(r, spec, sample)
	if err != nil {
		return err
	}
	layers.record(r)
	r.attempted += int64(len(sample))
	untracedMean := untraced / time.Duration(len(sample))
	r.set("trace.overhead_frac", float64(tracedMean)/float64(untracedMean)-1)

	// More single-thread latency samples, past the traced seeds, until a
	// third of the budget is spent, for a steadier p99.
	deadline := time.Now().Add(r.budget / 3)
	for i := s.sample; time.Now().Before(deadline); i++ {
		for _, b := range bounds {
			t := time.Now()
			if _, err := b.Run(b.Spec().Seed + uint64(i)); err != nil {
				return fmt.Errorf("%s: trial %d: %w", s.name, i, err)
			}
			lat = append(lat, ms(time.Since(t)))
		}
	}
	r.set("scenario.trial_ms_p50", quantile(lat, 0.5))
	r.set("scenario.trial_ms_p99", quantile(lat, 0.99))
	return nil
}
