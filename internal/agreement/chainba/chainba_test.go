package chainba

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/xrand"
)

func advTB(n, t int) chain.AdversarialTieBreaker {
	return chain.AdversarialTieBreaker{
		IsByzantine: func(id appendmem.NodeID) bool { return int(id) >= n-t },
	}
}

func TestAppendOnEmptyViewAttachesGenesis(t *testing.T) {
	m := appendmem.New(1)
	Rule{TB: chain.FirstTieBreaker{}}.Append(m.Read(), m.Writer(0), +1, nil)
	msg := m.Message(0)
	if len(msg.Parents) != 1 || msg.Parents[0] != appendmem.None {
		t.Fatalf("parents = %v", msg.Parents)
	}
}

func TestAppendExtendsLongest(t *testing.T) {
	m := appendmem.New(2)
	g := m.Writer(0).MustAppend(0, 0, []appendmem.MsgID{appendmem.None})
	tip := m.Writer(0).MustAppend(1, 0, []appendmem.MsgID{g.ID})
	Rule{TB: chain.FirstTieBreaker{}}.Append(m.Read(), m.Writer(1), +1, nil)
	got := m.Message(2)
	if got.Parents[0] != tip.ID {
		t.Fatalf("appended to %d, want %d", got.Parents[0], tip.ID)
	}
}

func TestDecideNeedsHeightK(t *testing.T) {
	m := appendmem.New(1)
	parent := appendmem.None
	r := Rule{TB: chain.FirstTieBreaker{}}
	for i := 0; i < 4; i++ {
		if _, ok := r.Decide(m.Read(), 5, nil); ok {
			t.Fatalf("decided at height %d < 5", i)
		}
		msg := m.Writer(0).MustAppend(+1, 0, []appendmem.MsgID{parent})
		parent = msg.ID
	}
	m.Writer(0).MustAppend(+1, 0, []appendmem.MsgID{parent})
	v, ok := r.Decide(m.Read(), 5, nil)
	if !ok || v != +1 {
		t.Fatalf("decide = (%d, %v)", v, ok)
	}
}

func TestDecideSumsFirstK(t *testing.T) {
	// Chain values: -1, -1, +1, +1, +1. k=3 sums first three: -1.
	m := appendmem.New(1)
	vals := []int64{-1, -1, +1, +1, +1}
	parent := appendmem.None
	for _, v := range vals {
		msg := m.Writer(0).MustAppend(v, 0, []appendmem.MsgID{parent})
		parent = msg.ID
	}
	v, ok := Rule{TB: chain.FirstTieBreaker{}}.Decide(m.Read(), 3, nil)
	if !ok || v != -1 {
		t.Fatalf("decide = (%d, %v), want (-1, true)", v, ok)
	}
}

func TestNoByzantineWorks(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		r := agreement.MustRun(agreement.RandomizedConfig{
			N: 10, T: 0, Lambda: 0.1, K: 21, Seed: seed,
		}, Rule{TB: chain.RandomTieBreaker{}}, agreement.Silent{})
		if !r.Verdict.OK() {
			t.Fatalf("seed %d: %+v", seed, r.Verdict)
		}
	}
}

// Theorem 5.3: with worst-case deterministic tie-breaking, the fork attack
// overwhelms validity above t = n/3 but not well below it.
func TestDeterministicTieBreakThreshold(t *testing.T) {
	failures := func(n, tt int, lam float64) int {
		fails := 0
		for seed := uint64(0); seed < 20; seed++ {
			r := agreement.MustRun(agreement.RandomizedConfig{
				N: n, T: tt, Lambda: lam, K: 41, Seed: seed,
			}, Rule{TB: advTB(n, tt)}, &adversary.ChainAttack{P: adversary.Fork})
			if !r.Verdict.Validity {
				fails++
			}
		}
		return fails
	}
	below := failures(9, 2, 0.5) // t/n = 0.22 < 1/3
	above := failures(9, 5, 0.5) // t/n = 0.56 > 1/3
	if below > 2 {
		t.Fatalf("validity failed %d/20 below the n/3 threshold", below)
	}
	if above < 10 {
		t.Fatalf("validity failed only %d/20 above the n/3 threshold", above)
	}
}

// Theorem 5.4: with randomized tie-breaking, resilience collapses as
// λ(n−t) grows — t/n = 0.4 survives at λ(n−t)=0.3 and dies at λ(n−t)=6.
func TestRandomizedTieBreakLambdaDependence(t *testing.T) {
	failures := func(lam float64) int {
		fails := 0
		for seed := uint64(0); seed < 20; seed++ {
			r := agreement.MustRun(agreement.RandomizedConfig{
				N: 10, T: 4, Lambda: lam, K: 21, Seed: seed,
			}, Rule{TB: chain.RandomTieBreaker{}}, &adversary.ChainAttack{P: adversary.TieBreak})
			if !r.Verdict.Validity {
				fails++
			}
		}
		return fails
	}
	slow := failures(0.05) // λ(n−t) = 0.3: bound 1/(1.3) = 0.77 > 0.4
	fast := failures(1.0)  // λ(n−t) = 6:   bound 1/7 ≈ 0.14 < 0.4
	if slow > 8 {
		t.Fatalf("validity failed %d/20 at low rate; chain should survive", slow)
	}
	if fast < 15 {
		t.Fatalf("validity failed only %d/20 at high rate; tie-break attack ineffective", fast)
	}
}

func TestRandomizedBeatsAdversarialTies(t *testing.T) {
	// The paper: under the fork attack, randomized tie-breaking includes
	// only every second Byzantine fork, deterministic-adversarial all of
	// them. Compare Byzantine chain fractions directly.
	byzFrac := func(tb chain.TieBreaker) float64 {
		total, byz := 0, 0
		for seed := uint64(0); seed < 10; seed++ {
			r := agreement.MustRun(agreement.RandomizedConfig{
				N: 9, T: 4, Lambda: 0.5, K: 41, Seed: seed,
			}, Rule{TB: tb}, &adversary.ChainAttack{P: adversary.Fork})
			tree := chain.Build(r.FinalView)
			tips := tree.LongestTips()
			if len(tips) == 0 {
				continue
			}
			rng := xrand.New(seed, 123)
			tip := tb.Pick(tips, r.FinalView, rng)
			for _, id := range tree.ChainTo(tip) {
				total++
				if r.Roster.IsByzantine(r.FinalView.Message(id).Author) {
					byz++
				}
			}
		}
		return float64(byz) / float64(total)
	}
	advFrac := byzFrac(advTB(9, 4))
	rndFrac := byzFrac(chain.RandomTieBreaker{})
	if advFrac <= rndFrac {
		t.Fatalf("adversarial ties (%v) not worse than randomized (%v)", advFrac, rndFrac)
	}
}

func TestEquivocatorDoesNotBlockTermination(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		r := agreement.MustRun(agreement.RandomizedConfig{
			N: 8, T: 2, Lambda: 0.3, K: 15, Seed: seed,
		}, Rule{TB: chain.RandomTieBreaker{}}, &adversary.ChainAttack{P: adversary.Equivocate})
		if !r.Verdict.Termination {
			t.Fatalf("seed %d: equivocation blocked termination", seed)
		}
	}
}

func TestCrashNodesDoNotBlock(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		r := agreement.MustRun(agreement.RandomizedConfig{
			N: 8, Crashes: 3, Lambda: 0.2, K: 15, Seed: seed,
		}, Rule{TB: chain.RandomTieBreaker{}}, agreement.Silent{})
		if !r.Verdict.OK() {
			t.Fatalf("seed %d: %+v", seed, r.Verdict)
		}
	}
}

func TestConfirmDepthDelaysDecision(t *testing.T) {
	m := appendmem.New(1)
	parent := appendmem.None
	r := Rule{TB: chain.FirstTieBreaker{}, Confirm: 2}
	for i := 0; i < 6; i++ {
		msg := m.Writer(0).MustAppend(+1, 0, []appendmem.MsgID{parent})
		parent = msg.ID
	}
	// Height 6 < k+confirm = 7: not yet.
	if _, ok := r.Decide(m.Read(), 5, nil); ok {
		t.Fatal("decided before confirmation depth reached")
	}
	msg := m.Writer(0).MustAppend(+1, 0, []appendmem.MsgID{parent})
	_ = msg
	v, ok := r.Decide(m.Read(), 5, nil)
	if !ok || v != +1 {
		t.Fatalf("decide = (%d,%v)", v, ok)
	}
}
