// Harness-level tests for bounded-memory windows and trial checkpoints:
// both features must leave every observable of a run untouched (decisions,
// times, counts) while changing only how much state stays resident or how
// much prefix is re-simulated. External test package: the tests drive the
// harness with the real chain/dag rules, which import agreement.
package agreement_test

import (
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// protoCase is one protocol under test, parameterized by confirmation depth
// so the checkpoint tests can sweep it.
type protoCase struct {
	name string
	rule func(confirm int) agreement.HonestRule
}

func windowProtocols() []protoCase {
	return []protoCase{
		{"chain-random", func(c int) agreement.HonestRule {
			return chainba.Rule{TB: chain.RandomTieBreaker{}, Confirm: c}
		}},
		{"chain-first", func(c int) agreement.HonestRule {
			return chainba.Rule{TB: chain.FirstTieBreaker{}, Confirm: c}
		}},
		{"dag-ghost", func(c int) agreement.HonestRule {
			return dagba.Rule{Pivot: dagba.Ghost, Confirm: c}
		}},
		{"dag-longest", func(c int) agreement.HonestRule {
			return dagba.Rule{Pivot: dagba.Longest, Confirm: c}
		}},
	}
}

type advCase struct {
	name string
	adv  func(rule agreement.HonestRule) agreement.Adversary
}

func windowAdversaries() []advCase {
	return []advCase{
		{"silent", func(agreement.HonestRule) agreement.Adversary { return agreement.Silent{} }},
		{"flip", func(rule agreement.HonestRule) agreement.Adversary { return &agreement.ValueFlip{Rule: rule} }},
	}
}

// assertSameResult compares every decision-relevant observable of two runs.
func assertSameResult(t *testing.T, want, got *agreement.Result) {
	t.Helper()
	if want.Verdict != got.Verdict {
		t.Errorf("verdict: want %+v, got %+v", want.Verdict, got.Verdict)
	}
	if want.Grants != got.Grants || want.Duration != got.Duration {
		t.Errorf("grants/duration: want %d/%v, got %d/%v",
			want.Grants, want.Duration, got.Grants, got.Duration)
	}
	if want.TotalAppends != got.TotalAppends || want.CorrectAppends != got.CorrectAppends ||
		want.ByzAppends != got.ByzAppends {
		t.Errorf("appends: want %d/%d/%d, got %d/%d/%d",
			want.TotalAppends, want.CorrectAppends, want.ByzAppends,
			got.TotalAppends, got.CorrectAppends, got.ByzAppends)
	}
	for i := range want.Outcome.Decided {
		if want.Outcome.Decided[i] != got.Outcome.Decided[i] ||
			want.Outcome.Decision[i] != got.Outcome.Decision[i] {
			t.Errorf("node %d outcome: want (%v,%d), got (%v,%d)", i,
				want.Outcome.Decided[i], want.Outcome.Decision[i],
				got.Outcome.Decided[i], got.Outcome.Decision[i])
		}
		if want.DecideTime[i] != got.DecideTime[i] || want.DecideViewSize[i] != got.DecideViewSize[i] {
			t.Errorf("node %d decide at/size: want %v/%d, got %v/%d", i,
				want.DecideTime[i], want.DecideViewSize[i],
				got.DecideTime[i], got.DecideViewSize[i])
		}
	}
}

// assertSameMemory compares the message streams of two runs, from the
// first message both memories still hold (0 unless a window retired some).
func assertSameMemory(t *testing.T, want, got *appendmem.Memory) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("memory length: want %d, got %d", want.Len(), got.Len())
	}
	for id := max(want.Watermark(), got.Watermark()); id < want.Len(); id++ {
		a, b := want.Message(appendmem.MsgID(id)), got.Message(appendmem.MsgID(id))
		if a.Author != b.Author || a.Seq != b.Seq || a.Value != b.Value || len(a.Parents) != len(b.Parents) {
			t.Fatalf("message %d differs: %+v vs %+v", id, a, b)
		}
		for j := range a.Parents {
			if a.Parents[j] != b.Parents[j] {
				t.Fatalf("message %d parent %d differs: %v vs %v", id, j, a.Parents, b.Parents)
			}
		}
	}
}

// TestWindowedMatchesUnbounded: a windowed run must produce exactly the
// decisions, times and counts of the unbounded run with the same seed —
// retirement only drops state nobody can reach any more — while keeping
// strictly fewer messages live.
func TestWindowedMatchesUnbounded(t *testing.T) {
	for _, p := range windowProtocols() {
		for _, a := range windowAdversaries() {
			t.Run(p.name+"/"+a.name, func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					cfg := agreement.RandomizedConfig{
						N: 6, T: 2, Lambda: 1, K: 81, Crashes: 1, Seed: seed,
					}
					rule := p.rule(0)
					full, err := agreement.RunRandomized(cfg, rule, a.adv(rule))
					if err != nil {
						t.Fatal(err)
					}
					wcfg := cfg
					wcfg.Window = 64
					windowed, err := agreement.RunRandomized(wcfg, rule, a.adv(rule))
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, full, windowed)
					if full.MemHighWater != full.TotalAppends {
						t.Errorf("seed %d: unbounded high-water %d != appends %d",
							seed, full.MemHighWater, full.TotalAppends)
					}
					if windowed.MemHighWater >= windowed.TotalAppends {
						t.Errorf("seed %d: windowed run retired nothing (high-water %d, appends %d)",
							seed, windowed.MemHighWater, windowed.TotalAppends)
					}
				}
			})
		}
	}
}

// plainRule is an HonestRule with no reachability floors.
type plainRule struct{}

func (plainRule) Append(_ appendmem.View, w *appendmem.Writer, input int64, _ *xrand.PCG) {
	w.MustAppend(input, 0, nil)
}

func (plainRule) Decide(view appendmem.View, k int, _ *xrand.PCG) (int64, bool) {
	if view.Size() < k {
		return 0, false
	}
	return 1, true
}

// floorlessAdversary appends nothing but also exposes no floors.
type floorlessAdversary struct{}

func (floorlessAdversary) Init(*agreement.Env)  {}
func (floorlessAdversary) OnGrant(access.Grant) {}

// TestWindowRequiresFloors: a windowed run must refuse parties that cannot
// bound their reachable prefix, instead of retiring state under them.
func TestWindowRequiresFloors(t *testing.T) {
	cfg := agreement.RandomizedConfig{N: 4, T: 1, Lambda: 1, K: 5, Seed: 1, Window: 32}
	if _, err := agreement.RunRandomized(cfg, plainRule{}, agreement.Silent{}); err == nil {
		t.Fatal("window accepted a rule without reachability floors")
	}
	rule := chainba.Rule{TB: chain.FirstTieBreaker{}}
	if _, err := agreement.RunRandomized(cfg, rule, floorlessAdversary{}); err == nil {
		t.Fatal("window accepted an adversary without reachability floors")
	}
	// With T = 0 the adversary never appends, so its floors are not needed.
	cfg.T = 0
	if _, err := agreement.RunRandomized(cfg, rule, floorlessAdversary{}); err != nil {
		t.Fatalf("window rejected a floorless adversary with T=0: %v", err)
	}
}

// TestWindowCheckpointValidation pins the mode-compatibility matrix.
func TestWindowCheckpointValidation(t *testing.T) {
	rule := chainba.Rule{TB: chain.FirstTieBreaker{}}
	base := agreement.RandomizedConfig{N: 4, T: 0, Lambda: 1, K: 5, Seed: 1}

	cfg := base
	cfg.Window = -1
	if _, err := agreement.RunRandomized(cfg, rule, agreement.Silent{}); err == nil {
		t.Error("negative window accepted")
	}

	cfg = base
	cfg.Window = 32
	cfg.CheckpointSink = func(*agreement.Checkpoint) {}
	if _, err := agreement.RunRandomized(cfg, rule, agreement.Silent{}); err == nil {
		t.Error("window + checkpoint accepted")
	}

	cfg = base
	cfg.Window = 32
	cfg.StallAtSize = 10
	if _, err := agreement.RunRandomized(cfg, rule, agreement.Silent{}); err == nil {
		t.Error("window + stall accepted")
	}

	cfg = base
	cfg.CheckpointSink = func(*agreement.Checkpoint) {}
	cfg.Trace = trace.New()
	if _, err := agreement.RunRandomized(cfg, rule, agreement.Silent{}); err == nil {
		t.Error("checkpoint + trace accepted")
	}

	cfg = base
	cfg.ResumeFrom = &agreement.Checkpoint{} // wrong node count
	if _, err := agreement.RunRandomized(cfg, rule, agreement.Silent{}); err == nil {
		t.Error("checkpoint for a different node count accepted")
	}
}

// TestCheckpointResumeMatchesScratch: capture a checkpoint at the first
// decision of a confirm-0 run, then verify that every deeper-confirmation
// run resumed from it is observable-for-observable identical to the same
// run simulated from scratch — the whole point of prefix reuse.
func TestCheckpointResumeMatchesScratch(t *testing.T) {
	for _, p := range windowProtocols() {
		t.Run(p.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := agreement.RandomizedConfig{
					N: 6, T: 2, Lambda: 1, K: 21, Crashes: 1, Seed: seed,
				}
				rule0 := p.rule(0)

				var cp *agreement.Checkpoint
				ccfg := cfg
				ccfg.CheckpointSink = func(c *agreement.Checkpoint) { cp = c }
				captured, err := agreement.RunRandomized(ccfg, rule0, &agreement.ValueFlip{Rule: rule0})
				if err != nil {
					t.Fatal(err)
				}

				// The sink itself must not perturb the run.
				plain, err := agreement.RunRandomized(cfg, rule0, &agreement.ValueFlip{Rule: rule0})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, plain, captured)
				assertSameMemory(t, plain.Mem, captured.Mem)
				if cp == nil {
					t.Fatalf("seed %d: no decision, no checkpoint", seed)
				}

				for _, confirm := range []int{1, 4} {
					ruleC := p.rule(confirm)
					scratch, err := agreement.RunRandomized(cfg, ruleC, &agreement.ValueFlip{Rule: ruleC})
					if err != nil {
						t.Fatal(err)
					}
					rcfg := cfg
					rcfg.ResumeFrom = cp
					resumed, err := agreement.RunRandomized(rcfg, ruleC, &agreement.ValueFlip{Rule: ruleC})
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, scratch, resumed)
					assertSameMemory(t, scratch.Mem, resumed.Mem)
				}
			}
		})
	}
}

// TestCheckpointConcurrentResume: one checkpoint must serve many resumes
// concurrently (the sweep executor fans confirmation points out across
// workers) — every resume clones the memory, the checkpoint is immutable.
// Run under -race this pins the sharing discipline.
func TestCheckpointConcurrentResume(t *testing.T) {
	cfg := agreement.RandomizedConfig{N: 6, T: 2, Lambda: 1, K: 21, Seed: 7}
	rule0 := dagba.Rule{Pivot: dagba.Ghost}

	var cp *agreement.Checkpoint
	ccfg := cfg
	ccfg.CheckpointSink = func(c *agreement.Checkpoint) { cp = c }
	if _, err := agreement.RunRandomized(ccfg, rule0, &agreement.ValueFlip{Rule: rule0}); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}

	const lanes = 4
	results := make([]*agreement.Result, lanes)
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			ruleC := dagba.Rule{Pivot: dagba.Ghost, Confirm: 2}
			rcfg := cfg
			rcfg.ResumeFrom = cp
			results[lane], errs[lane] = agreement.RunRandomized(rcfg, ruleC, &agreement.ValueFlip{Rule: ruleC})
		}(lane)
	}
	wg.Wait()
	for lane := 0; lane < lanes; lane++ {
		if errs[lane] != nil {
			t.Fatal(errs[lane])
		}
		if lane > 0 {
			assertSameResult(t, results[0], results[lane])
			assertSameMemory(t, results[0].Mem, results[lane].Mem)
		}
	}
}
