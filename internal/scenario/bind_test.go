package scenario

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/agreement/syncba"
	"repro/internal/chain"
	"repro/internal/node"
	"repro/internal/trace"
)

func TestBindErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error
	}{
		{"unknown protocol", Spec{Protocol: "blockchain", N: 4}, "unknown protocol"},
		{"n zero", Spec{Protocol: Chain, N: 0}, "invalid roster"},
		{"t >= n", Spec{Protocol: Chain, N: 4, T: 4}, "invalid roster"},
		{"crashes overflow", Spec{Protocol: Chain, N: 4, T: 2, Crashes: 3}, "crashes"},
		{"bad inputs", Spec{Protocol: Chain, N: 4, Lambda: 1, K: 5, Inputs: "bogus"}, "input spec"},
		{"split out of range", Spec{Protocol: Chain, N: 4, Lambda: 1, K: 5, Inputs: "split:9"}, "input spec"},
		{"unknown attack", Spec{Protocol: Chain, N: 4, Lambda: 1, K: 5, Attack: "ddos"}, "unknown attack"},
		{"randomized attack on sync", Spec{Protocol: Sync, N: 4, T: 1, Attack: AttackFlip}, "not valid for protocol sync"},
		{"chain attack on timestamp", Spec{Protocol: Timestamp, N: 4, T: 1, Lambda: 1, K: 3, Attack: AttackFork}, "not valid for protocol"},
		{"dag attack on chain", Spec{Protocol: Chain, N: 4, T: 1, Lambda: 1, K: 3, Attack: AttackPrivateChain}, "not valid for protocol"},
		{"sync attack on chain", Spec{Protocol: Chain, N: 4, T: 1, Lambda: 1, K: 5, Attack: AttackDelayedChain}, "not valid for protocol"},
		{"chain attack on dag", Spec{Protocol: Dag, N: 4, T: 1, Lambda: 1, K: 5, Attack: AttackTieBreak}, "not valid for protocol"},
		{"lambda missing", Spec{Protocol: Chain, N: 4, K: 5}, "lambda"},
		{"k missing", Spec{Protocol: Chain, N: 4, Lambda: 1}, "k > 0"},
		{"rates length", Spec{Protocol: Chain, N: 4, Rates: []float64{1, 1}, K: 5}, "rates"},
		{"rate non-positive", Spec{Protocol: Chain, N: 4, Rates: []float64{1, 1, 0, 1}, K: 5}, "non-positive"},
		{"round-robin on sync", Spec{Protocol: Sync, N: 4, T: 1, Access: AccessRoundRobin}, "randomized protocols only"},
		{"unknown access", Spec{Protocol: Chain, N: 4, Lambda: 1, K: 5, Access: "lottery"}, "unknown access"},
		{"confirm on timestamp", Spec{Protocol: Timestamp, N: 4, Lambda: 1, K: 5, Confirm: 3}, "confirm"},
		{"unknown tiebreak", Spec{Protocol: Chain, N: 4, Lambda: 1, K: 5, TieBreak: "coin"}, "unknown tie-break"},
		{"unknown pivot", Spec{Protocol: Dag, N: 4, Lambda: 1, K: 5, Pivot: "heaviest"}, "unknown pivot"},
	}
	for _, tc := range cases {
		_, err := Bind(tc.spec)
		if err == nil {
			t.Errorf("%s: Bind accepted %+v", tc.name, tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestBindDefaults(t *testing.T) {
	b := MustBind(Spec{Protocol: Chain, N: 4, T: 1, Lambda: 1, K: 5})
	if b.IsSync() {
		t.Fatal("chain bound as sync")
	}
	// Default attack is silent; default inputs all-+1.
	if _, ok := b.NewAdversary().(agreement.Silent); !ok {
		t.Errorf("default adversary = %T, want agreement.Silent", b.NewAdversary())
	}
	if got := b.inputs(1); !reflect.DeepEqual(got, node.AllSame(4, +1)) {
		t.Errorf("default inputs = %v", got)
	}

	s := MustBind(Spec{Protocol: Sync, N: 4, T: 1})
	if !s.IsSync() {
		t.Fatal("sync bound as randomized")
	}
}

// TestDifferentialChain: binding a chain spec must reproduce, bit for
// bit, what the experiments' direct agreement.MustRun calls produce at
// the same seed — this is the equivalence the migration relies on.
func TestDifferentialChain(t *testing.T) {
	b := MustBind(Spec{
		Protocol: Chain, N: 6, T: 2, Lambda: 0.5, K: 11,
		Attack: AttackTieBreak,
	})
	for seed := uint64(1); seed <= 5; seed++ {
		got := b.Randomized(seed)
		want := agreement.MustRun(
			agreement.RandomizedConfig{N: 6, T: 2, Lambda: 0.5, K: 11, Seed: seed},
			chainba.Rule{TB: chain.RandomTieBreaker{}},
			&adversary.ChainAttack{P: adversary.TieBreak})
		assertSameRandomized(t, seed, got, want)
	}
}

// TestDifferentialDag: same equivalence for a DAG spec with non-default
// pivot, heterogeneous rates, crashes and random inputs.
func TestDifferentialDag(t *testing.T) {
	rates := []float64{1, 1, 1, 2, 2, 2}
	b := MustBind(Spec{
		Protocol: Dag, N: 6, T: 2, Rates: rates, K: 11,
		Pivot: PivotLongest, Attack: AttackPrivateChain,
		Crashes: 1, Inputs: "split:2",
	})
	for seed := uint64(1); seed <= 5; seed++ {
		got := b.Randomized(seed)
		want := agreement.MustRun(
			agreement.RandomizedConfig{
				N: 6, T: 2, Rates: rates, K: 11, Seed: seed,
				Crashes: 1, Inputs: node.SplitInputs(6, 2),
			},
			dagba.Rule{Pivot: dagba.Longest},
			&adversary.DagAttack{P: adversary.PrivateChain, Pivot: dagba.Longest})
		assertSameRandomized(t, seed, got, want)
	}
}

// TestDifferentialSync: the sync harness path must match direct
// syncba.Run calls.
func TestDifferentialSync(t *testing.T) {
	b := MustBind(Spec{Protocol: Sync, N: 5, T: 2, Attack: AttackLoudFlip})
	for seed := uint64(1); seed <= 5; seed++ {
		got := b.Sync(seed)
		want, err := syncba.Run(
			syncba.Config{N: 5, T: 2, Seed: seed, Inputs: node.AllSame(5, +1)},
			&syncba.LoudFlip{})
		if err != nil {
			t.Fatalf("seed %d: direct run: %v", seed, err)
		}
		if got.Verdict != want.Verdict {
			t.Errorf("seed %d: verdict %+v != %+v", seed, got.Verdict, want.Verdict)
		}
		if !reflect.DeepEqual(got.Outcome, want.Outcome) {
			t.Errorf("seed %d: outcome differs", seed)
		}
		if got.Duration != want.Duration {
			t.Errorf("seed %d: duration %v != %v", seed, got.Duration, want.Duration)
		}
	}
}

func assertSameRandomized(t *testing.T, seed uint64, got, want *agreement.Result) {
	t.Helper()
	if got.Verdict != want.Verdict {
		t.Errorf("seed %d: verdict %+v != %+v", seed, got.Verdict, want.Verdict)
	}
	if !reflect.DeepEqual(got.Outcome, want.Outcome) {
		t.Errorf("seed %d: outcome differs", seed)
	}
	if got.TotalAppends != want.TotalAppends || got.ByzAppends != want.ByzAppends || got.Grants != want.Grants {
		t.Errorf("seed %d: appends %d/%d/%d != %d/%d/%d", seed,
			got.TotalAppends, got.ByzAppends, got.Grants,
			want.TotalAppends, want.ByzAppends, want.Grants)
	}
	if got.Duration != want.Duration {
		t.Errorf("seed %d: duration %v != %v", seed, got.Duration, want.Duration)
	}
	if !reflect.DeepEqual(got.DecideTime, want.DecideTime) {
		t.Errorf("seed %d: decide times differ", seed)
	}
}

// TestUnifiedRun: Run must agree with the harness-specific entry points
// and populate the uniform Result.
func TestUnifiedRun(t *testing.T) {
	b := MustBind(Spec{Protocol: Dag, N: 5, T: 1, Lambda: 1, K: 7})
	r, err := b.Run(3)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	direct := b.Randomized(3)
	if r.Verdict != direct.Verdict || r.TotalAppends != direct.TotalAppends || r.Duration != direct.Duration {
		t.Fatal("Run disagrees with Randomized at the same seed")
	}
	if !r.HasView || r.FinalView.Size() == 0 {
		t.Fatal("Run did not carry the final view")
	}

	s := MustBind(Spec{Protocol: Sync, N: 4, T: 1})
	rs, err := s.Run(3)
	if err != nil {
		t.Fatalf("sync Run: %v", err)
	}
	if !rs.HasView || rs.TotalAppends != rs.FinalView.Size() {
		t.Fatal("sync Run result inconsistent")
	}
}

func TestRunTrials(t *testing.T) {
	res, err := RunSpec(Spec{Protocol: Chain, N: 5, T: 1, Lambda: 1, K: 7, Seed: 1, Trials: 4}, Options{})
	if err != nil {
		t.Fatalf("RunSpec: %v", err)
	}
	pt := res.Points[0]
	if pt.Trials != 4 {
		t.Fatalf("trials = %d", pt.Trials)
	}
	count := map[string]int{}
	for _, m := range pt.Metrics {
		count[m.Name] = m.Count
		if m.Value != float64(m.Count)/4 {
			t.Errorf("%s: rate %v != %d/4", m.Name, m.Value, m.Count)
		}
	}
	ok := count["ok"]
	if ok > count["agreement"] || ok > count["validity"] || ok > count["termination"] {
		t.Fatalf("inconsistent counts %v", count)
	}

	if _, err := RunSpec(Spec{Protocol: "nope", N: 1}, Options{}); err == nil {
		t.Fatal("RunSpec accepted a bad spec")
	}
}

func TestInputSpecs(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want func(in node.Inputs) bool
	}{
		{"", func(in node.Inputs) bool { return in[0] == 1 && in[5] == 1 }},
		{"same", func(in node.Inputs) bool { return in[0] == 1 }},
		{"same:-1", func(in node.Inputs) bool { return in[0] == -1 }},
		{"split:2", func(in node.Inputs) bool { return in[0] == 1 && in[1] == 1 && in[2] == -1 }},
		{"random", func(in node.Inputs) bool { return in[0] == 1 || in[0] == -1 }},
	} {
		b, err := Bind(Spec{Protocol: Timestamp, N: 6, Lambda: 1, K: 5, Inputs: tc.spec})
		if err != nil {
			t.Fatalf("%q: %v", tc.spec, err)
		}
		if in := b.inputs(2); !tc.want(in) {
			t.Errorf("%q: inputs %v", tc.spec, in)
		}
	}
}

// validRuns counts the seeds in [0, trials) whose run kept validity.
func validRuns(t *testing.T, spec Spec, trials int) int {
	t.Helper()
	b := MustBind(spec)
	valid := 0
	for seed := uint64(0); seed < uint64(trials); seed++ {
		r, err := b.Run(seed)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict.Validity {
			valid++
		}
	}
	return valid
}

// TestAblationKnobs: fresh honest reads restore chain validity under the
// tie-break attack at a rate where stale views collapse (E12).
func TestAblationKnobs(t *testing.T) {
	spec := Spec{Protocol: Chain, N: 10, T: 4, Lambda: 1, K: 21, Attack: AttackTieBreak}
	stale := validRuns(t, spec, 15)
	spec.FreshReads = true
	if fresh := validRuns(t, spec, 15); fresh <= stale {
		t.Fatalf("fresh reads did not help: stale %d vs fresh %d", stale, fresh)
	}
}

// TestStallKnob: a blackout of honest views lets the private-chain attack
// stuff the DAG's decision prefix (E11).
func TestStallKnob(t *testing.T) {
	spec := Spec{Protocol: Dag, N: 10, T: 4, Lambda: 1, K: 41,
		Attack: AttackPrivateChain, StallAtSize: 30, StallFor: 6}
	if fails := 15 - validRuns(t, spec, 15); fails < 8 {
		t.Fatalf("blackout barely hurt DAG validity: %d/15 failures", fails)
	}
}

// TestRoundRobinKnob: the burst-free authority still completes runs, and
// its grant pattern is perfectly even — per-node grant counts differ by
// at most one (appends can differ more: nodes stop appending once
// decided).
func TestRoundRobinKnob(t *testing.T) {
	rec := trace.New()
	b := MustBind(Spec{Protocol: Timestamp, N: 6, Lambda: 1, K: 24, Access: AccessRoundRobin})
	r, err := b.RunTraced(2, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verdict.OK() {
		t.Fatalf("%+v", r.Verdict)
	}
	counts := make([]int, 6)
	for _, e := range rec.Events() {
		if e.Kind == trace.Grant {
			counts[e.Node]++
		}
	}
	if slices.Max(counts)-slices.Min(counts) > 1 {
		t.Fatalf("round-robin grants uneven: %v", counts)
	}
}

func TestRandomInputsDeterministicPerSeed(t *testing.T) {
	b := MustBind(Spec{Protocol: Chain, N: 8, T: 1, Lambda: 1, K: 7, Inputs: "random"})
	a1, a2 := b.inputs(9), b.inputs(9)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("random inputs not deterministic per seed")
	}
	if reflect.DeepEqual(b.inputs(1), b.inputs(2)) {
		t.Fatal("random inputs identical across seeds (suspicious)")
	}
}

// TestBindBoundedValidation: the windowed/checkpoint knobs must fail at
// bind time with errors naming the conflict, never trials in.
func TestBindBoundedValidation(t *testing.T) {
	ok := Spec{Protocol: Dag, N: 6, T: 2, Lambda: 1, K: 15, Window: 64, Attack: AttackFlip}
	if _, err := Bind(ok); err != nil {
		t.Fatalf("valid windowed spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"negative", func(s *Spec) { s.Window = -1 }, "window must be >= 0"},
		{"below lookback", func(s *Spec) { s.Window = 16; s.Confirm = 4 }, "k+confirm = 15+4 = 19"},
		{"wrong protocol", func(s *Spec) { s.Protocol = Timestamp }, "chain/dag"},
		{"attack", func(s *Spec) { s.Attack = AttackPrivateChain }, "silent/flip"},
		{"topology", func(s *Spec) { s.Topology = TopoRing }, "complete topology"},
		{"stall", func(s *Spec) { s.StallAtSize = 10 }, "stall_at"},
		{"async", func(s *Spec) { s.AsyncDelayMax = 2 }, "async_delay_max"},
		{"both modes", func(s *Spec) { s.Checkpoint = true }, "mutually exclusive"},
		{"checkpoint attack", func(s *Spec) { s.Window = 0; s.Checkpoint = true; s.Attack = AttackLastMinute }, "adversary state is not checkpointed"},
	}
	for _, tc := range cases {
		s := ok
		tc.mut(&s)
		_, err := Bind(s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
	// The window-below-lookback error must name both sides of the conflict.
	s := ok
	s.Window = 16
	s.Confirm = 4
	_, err := Bind(s)
	if err == nil || !strings.Contains(err.Error(), "window 16") {
		t.Errorf("lookback error does not name the window: %v", err)
	}
}

// TestOrderMetricsRejectWindow: metrics that rebuild the full chain/dag
// from the final view cannot run over a windowed (prefix-retired) memory.
func TestOrderMetricsRejectWindow(t *testing.T) {
	b, err := Bind(Spec{Protocol: Dag, N: 6, T: 2, Lambda: 1, K: 15, Window: 64, Attack: AttackFlip})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	for _, name := range []string{"max-byz-run", "byz-prefix-share"} {
		def, ok := Metrics.Lookup(name)
		if !ok {
			t.Fatalf("metric %q not registered", name)
		}
		if _, err := def.Bind(b); err == nil || !strings.Contains(err.Error(), "window") {
			t.Errorf("%s: want window rejection, got %v", name, err)
		}
	}
}
