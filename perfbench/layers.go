package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/access"
	"repro/internal/agreement"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/dag"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// layerRec collects one traced trial's spans: time inside the honest
// rule and the adversary, call counts, and every Decide view size per
// correct node (for the substrate replay). Spans stay in memory; the run
// reduces them to the per-layer table at the end.
type layerRec struct {
	decide, append, onGrant              time.Duration
	decideCalls, decideHits, appendCalls int
	onGrantCalls                         int
	views                                [][]int // per node rule, in creation order
}

// timedRule wraps the bound honest rule. It forwards NewNodeRule so the
// harness still drives every correct node through its own per-node
// instance, exactly as in an untraced run.
type timedRule struct {
	inner agreement.HonestRule
	rec   *layerRec
	node  int // index into rec.views; -1 for the shared instance
}

// NewNodeRule implements agreement.PerNodeState.
func (t *timedRule) NewNodeRule() agreement.HonestRule {
	inner := t.inner
	if p, ok := inner.(agreement.PerNodeState); ok {
		inner = p.NewNodeRule()
	}
	t.rec.views = append(t.rec.views, nil)
	return &timedRule{inner: inner, rec: t.rec, node: len(t.rec.views) - 1}
}

// Append implements agreement.HonestRule.
func (t *timedRule) Append(view appendmem.View, w *appendmem.Writer, input int64, rng *xrand.PCG) {
	t0 := time.Now()
	t.inner.Append(view, w, input, rng)
	t.rec.append += time.Since(t0)
	t.rec.appendCalls++
}

// Decide implements agreement.HonestRule.
func (t *timedRule) Decide(view appendmem.View, k int, rng *xrand.PCG) (int64, bool) {
	t0 := time.Now()
	v, ok := t.inner.Decide(view, k, rng)
	t.rec.decide += time.Since(t0)
	t.rec.decideCalls++
	if ok {
		t.rec.decideHits++
	}
	if t.node >= 0 {
		t.rec.views[t.node] = append(t.rec.views[t.node], view.Size())
	}
	return v, ok
}

// timedAdversary wraps the bound adversary and times its grants.
type timedAdversary struct {
	inner agreement.Adversary
	rec   *layerRec
}

// Init implements agreement.Adversary.
func (a *timedAdversary) Init(env *agreement.Env) { a.inner.Init(env) }

// OnGrant implements agreement.Adversary.
func (a *timedAdversary) OnGrant(g access.Grant) {
	t0 := time.Now()
	a.inner.OnGrant(g)
	a.rec.onGrant += time.Since(t0)
	a.rec.onGrantCalls++
}

// tracedTrial is one trial run through agreement.RunRandomized with the
// wrapped rule and adversary.
type tracedTrial struct {
	rec   layerRec
	total time.Duration
	res   *agreement.Result
}

// trialConfig builds the harness config of one trial from the spec, the
// way scenario.Bind resolves it. The benchmark specs use the default
// all-+1 inputs; graph is nil on the complete topology.
func trialConfig(spec scenario.Spec, graph *topology.Graph, seed uint64) (agreement.RandomizedConfig, error) {
	if spec.Inputs != "" && spec.Inputs != "same" {
		return agreement.RandomizedConfig{}, fmt.Errorf("traced trials support the default inputs only, not %q", spec.Inputs)
	}
	cfg := agreement.RandomizedConfig{
		N: spec.N, T: spec.T, Lambda: spec.Lambda, Rates: spec.Rates,
		Delta: spec.Delta, K: spec.K, Seed: seed,
		Inputs: node.AllSame(spec.N, +1), Crashes: spec.Crashes,
		FreshHonestReads: spec.FreshReads,
		StallAtSize:      spec.StallAtSize, StallFor: spec.StallFor,
		AsyncDelayMax: spec.AsyncDelayMax,
		Window:        spec.Window,
	}
	if graph != nil {
		kind, err := topology.ParseDelayKind(spec.DelayDist)
		if err != nil {
			return cfg, err
		}
		cfg.Topology = graph
		cfg.TopologyDelay = topology.DelayModel{Kind: kind, Jitter: spec.LinkJitter}
	}
	name := spec.Access
	if name == "" {
		name = scenario.AccessPoisson
	}
	def, ok := scenario.AccessModels.Lookup(string(name))
	if !ok {
		return cfg, fmt.Errorf("unknown access model %q", name)
	}
	def(&cfg)
	return cfg, nil
}

// specGraph returns the topology graph a spec binds to, nil on the
// complete topology.
func specGraph(spec scenario.Spec) (*topology.Graph, error) {
	if spec.Topology == "" || spec.Topology == scenario.TopoComplete {
		return nil, nil
	}
	return scenario.BuildTopology(spec)
}

func traceTrial(b *scenario.Bound, graph *topology.Graph, seed uint64) (*tracedTrial, error) {
	cfg, err := trialConfig(b.Spec(), graph, seed)
	if err != nil {
		return nil, err
	}
	tt := &tracedTrial{}
	rule := &timedRule{inner: b.Rule(), rec: &tt.rec, node: -1}
	adv := &timedAdversary{inner: b.NewAdversary(), rec: &tt.rec}
	t0 := time.Now()
	tt.res, err = agreement.RunRandomized(cfg, rule, adv)
	tt.total = time.Since(t0)
	return tt, err
}

// sameRun reports whether a traced trial reproduced the untraced
// Bound.Run at the same seed: verdict, appends, grants and decisions.
func sameRun(t *agreement.Result, u *scenario.Result) bool {
	return t.Verdict == u.Verdict &&
		t.TotalAppends == u.TotalAppends && t.ByzAppends == u.ByzAppends &&
		t.Grants == u.Grants && t.Duration == u.Duration &&
		reflect.DeepEqual(t.DecideTime, u.DecideTime) &&
		reflect.DeepEqual(t.DecideViewSize, u.DecideViewSize) &&
		reflect.DeepEqual(t.Outcome.Decision, u.Decision) &&
		reflect.DeepEqual(t.Outcome.Decided, u.Decided)
}

// counts are the deterministic work counters of one traced trial; two
// traces of the same trial must agree on all of them.
type counts struct {
	grants, appends, byzAppends          int
	decideCalls, decideHits, appendCalls int
	onGrantCalls                         int
}

func (t *tracedTrial) counts() counts {
	return counts{
		grants: t.res.Grants, appends: t.res.TotalAppends, byzAppends: t.res.ByzAppends,
		decideCalls: t.rec.decideCalls, decideHits: t.rec.decideHits,
		appendCalls: t.rec.appendCalls, onGrantCalls: t.rec.onGrantCalls,
	}
}

// substrate is the replay of every recorded Decide view over fresh
// substrate indexes.
type substrate struct {
	decides                  int
	extend, pivot, linearize time.Duration
	alloc                    uint64
}

// replay re-indexes each node's recorded decision views, in order, with
// a fresh dag.Cached or chain.Cached per node over the trial's memory,
// timing the index extension (At), the pivot walk and the ordering
// (OrderedValues, what the DAG rule's Decide reads). Chain decisions also
// pick a tip with the node's private randomness, so only the extension
// is replayed there.
func (s *substrate) replay(spec scenario.Spec, t *tracedTrial) {
	mem := t.res.Mem
	need := spec.K + spec.Confirm
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, sizes := range t.rec.views {
		switch spec.Protocol {
		case scenario.Dag:
			c := dag.NewCached()
			for _, size := range sizes {
				t0 := time.Now()
				d := c.At(mem.ViewAt(size))
				t1 := time.Now()
				var pivot []appendmem.MsgID
				if spec.Pivot == "" || spec.Pivot == scenario.PivotGhost {
					pivot = d.GhostPivot()
				} else {
					pivot = d.LongestPivot()
				}
				t2 := time.Now()
				d.OrderedValues(pivot, need)
				s.extend += t1.Sub(t0)
				s.pivot += t2.Sub(t1)
				s.linearize += time.Since(t2)
			}
		case scenario.Chain:
			c := chain.NewCached()
			for _, size := range sizes {
				t0 := time.Now()
				c.At(mem.ViewAt(size))
				s.extend += time.Since(t0)
			}
		}
		s.decides += len(sizes)
	}
	runtime.ReadMemStats(&ms1)
	s.alloc += ms1.TotalAlloc - ms0.TotalAlloc
}

// trialLayers accumulates traced trials into the per-trial layer table.
type trialLayers struct {
	spec                           scenario.Spec
	trials                         int
	total, decide, append, onGrant time.Duration
	sum                            counts
	sub                            substrate
}

func (l *trialLayers) add(t *tracedTrial) {
	l.trials++
	l.total += t.total
	l.decide += t.rec.decide
	l.append += t.rec.append
	l.onGrant += t.rec.onGrant
	c := t.counts()
	l.sum.grants += c.grants
	l.sum.appends += c.appends
	l.sum.byzAppends += c.byzAppends
	l.sum.decideCalls += c.decideCalls
	l.sum.decideHits += c.decideHits
	l.sum.appendCalls += c.appendCalls
	l.sum.onGrantCalls += c.onGrantCalls
}

// record sets the agreement, rule, adversary and substrate rows.
func (l *trialLayers) record(r *run) {
	if l.trials == 0 {
		return
	}
	n := float64(l.trials)
	per := func(d time.Duration) float64 { return ms(d) / n }
	r.set("agreement.self_ms_per_trial", per(l.total-l.decide-l.append-l.onGrant))
	r.set("agreement.grants_per_trial", float64(l.sum.grants)/n)
	r.set("agreement.appends_per_trial", float64(l.sum.appends)/n)

	rule := "chainba."
	if l.spec.Protocol == scenario.Dag {
		rule = "dagba."
	}
	r.set(rule+"decide_ms_per_trial", per(l.decide))
	r.set(rule+"append_ms_per_trial", per(l.append))
	r.set(rule+"decide_calls_per_trial", float64(l.sum.decideCalls)/n)
	if l.sum.decideCalls > 0 {
		r.set(rule+"decide_hit_frac", float64(l.sum.decideHits)/float64(l.sum.decideCalls))
	}

	r.set("adversary.ongrant_ms_per_trial", per(l.onGrant))
	r.set("adversary.ongrant_calls_per_trial", float64(l.sum.onGrantCalls)/n)
	if l.sum.onGrantCalls > 0 {
		r.set("adversary.byz_append_frac", float64(l.sum.byzAppends)/float64(l.sum.onGrantCalls))
	}

	if s := l.sub; s.decides > 0 {
		d := float64(s.decides)
		if l.spec.Protocol == scenario.Dag {
			r.set("dag.extend_us_per_decide", us(s.extend)/d)
			r.set("dag.pivot_us_per_decide", us(s.pivot)/d)
			r.set("dag.linearize_us_per_decide", us(s.linearize)/d)
			r.set("dag.alloc_bytes_per_decide", float64(s.alloc)/d)
		} else {
			r.set("chain.extend_us_per_decide", us(s.extend)/d)
			r.set("chain.alloc_bytes_per_decide", float64(s.alloc)/d)
		}
	}
}

// traceSample traces every (bound, seed) pair twice. Each trace must
// reproduce the untraced reference result at its seed, and the second
// trace must repeat the first one's work counters exactly. The first
// pass is replayed over fresh substrate indexes. It returns the layer
// table and the mean traced trial time.
func traceSample(r *run, spec scenario.Spec, sample []sampleTrial) (*trialLayers, time.Duration, error) {
	l := &trialLayers{spec: spec}
	first := make([]counts, len(sample))
	var traced time.Duration
	for pass := 0; pass < 2; pass++ {
		for i, st := range sample {
			tt, err := traceTrial(st.bound, st.graph, st.seed)
			if err != nil {
				return nil, 0, err
			}
			r.check(sameRun(tt.res, st.ref), "traced trial at seed %d differs from Bound.Run", st.seed)
			traced += tt.total
			l.add(tt)
			if pass == 0 {
				first[i] = tt.counts()
				l.sub.replay(st.bound.Spec(), tt)
			} else {
				r.check(tt.counts() == first[i], "work counters of the trial at seed %d differ between two traces: %+v vs %+v",
					st.seed, first[i], tt.counts())
			}
		}
	}
	return l, traced / time.Duration(2*max(1, len(sample))), nil
}

// sampleTrial is one trial of the traced sample with its untraced
// reference result.
type sampleTrial struct {
	bound *scenario.Bound
	graph *topology.Graph
	seed  uint64
	ref   *scenario.Result
}
