package agreement_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/chain"
	"repro/internal/topology"
)

// TestDifferentialRecycledSlot runs trials of different specs back to
// back on one trial slot, so every trial splits its rule on the released
// instances of the one before: another pivot rule or confirmation depth,
// the other substrate, a windowed run after an asynchronous one (whose
// nodes built own indexes the windowed nodes then hold unused), per-node
// private indexes over a topology and shared ones after them. Every
// result must equal the same trial's on a fresh slot, live high-water
// mark included.
func TestDifferentialRecycledSlot(t *testing.T) {
	const n, byz = 7, 2
	dagAttack := func(p dagba.PivotRule) func(agreement.HonestRule) agreement.Adversary {
		return func(agreement.HonestRule) agreement.Adversary {
			return &adversary.DagAttack{P: adversary.PrivateChain, Pivot: p}
		}
	}
	chainAttack := func(agreement.HonestRule) agreement.Adversary { return &adversary.ChainAttack{P: adversary.Fork} }
	flip := func(r agreement.HonestRule) agreement.Adversary { return &agreement.ValueFlip{Rule: r} }
	specs := []struct {
		name string
		rule agreement.HonestRule
		adv  func(agreement.HonestRule) agreement.Adversary
		edit func(*agreement.RandomizedConfig)
	}{
		{"dag-ghost", dagba.Rule{Pivot: dagba.Ghost}, dagAttack(dagba.Ghost), nil},
		{"dag-longest-c3", dagba.Rule{Pivot: dagba.Longest, Confirm: 3}, dagAttack(dagba.Longest), nil},
		{"chain", chainba.Rule{TB: chain.RandomTieBreaker{}}, chainAttack, nil},
		{"dag-async", dagba.Rule{Pivot: dagba.Ghost}, flip, func(c *agreement.RandomizedConfig) { c.AsyncDelayMax = 2 }},
		{"dag-window", dagba.Rule{Pivot: dagba.Ghost}, flip, func(c *agreement.RandomizedConfig) { c.K, c.Window = 81, 2 }},
		{"chain-async", chainba.Rule{TB: chain.RandomTieBreaker{}}, flip, func(c *agreement.RandomizedConfig) { c.AsyncDelayMax = 2 }},
		{"chain-window", chainba.Rule{TB: chain.RandomTieBreaker{}, Confirm: 2}, flip, func(c *agreement.RandomizedConfig) { c.K, c.Window = 81, 2 }},
		{"dag-smallworld", dagba.Rule{Pivot: dagba.Longest}, dagAttack(dagba.Longest), func(c *agreement.RandomizedConfig) {
			c.Topology = smallWorld(c.Seed, c.N)
			c.TopologyDelay = topology.DelayModel{Kind: topology.DelayUniform}
		}},
		{"chain-smallworld", chainba.Rule{TB: chain.RandomTieBreaker{}}, chainAttack, func(c *agreement.RandomizedConfig) {
			c.Topology = smallWorld(c.Seed, c.N)
		}},
	}
	slot := agreement.NewSlot()
	retired := false
	for round := 0; round < 2; round++ {
		for i, sp := range specs {
			seed := uint64(1 + round*len(specs) + i)
			cfg := agreement.RandomizedConfig{N: n, T: byz, Lambda: 1, K: 21, Crashes: 1, Seed: seed}
			if sp.edit != nil {
				sp.edit(&cfg)
			}
			got, err := slot.Run(cfg, sp.rule, sp.adv(sp.rule))
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
			want, err := agreement.NewSlot().Run(cfg, sp.rule, sp.adv(sp.rule))
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
			t.Run(fmt.Sprintf("round%d/%s", round, sp.name), func(t *testing.T) {
				if g, w := harnessFingerprint(got, nil), harnessFingerprint(want, nil); g != w {
					t.Fatalf("recycled slot:\n%s\nfresh slot:\n%s", g, w)
				}
			})
			retired = retired || got.MemHighWater < got.TotalAppends
			if _, nodes := slot.Spares(); nodes < n-byz {
				t.Fatalf("%s: the slot holds %d released node rules, want at least %d", sp.name, nodes, n-byz)
			}
		}
	}
	if trials, _ := slot.Spares(); trials != 1 {
		t.Fatal("the slot holds no released trial rule")
	}
	// Node instances a plain NewNodeRule made (a wrapper that forwards
	// only that constructor) are not drawn from the spares, so they must
	// not be added to them either.
	_, before := slot.Spares()
	for seed := uint64(1); seed <= 3; seed++ {
		rule := perNodeOnly{dagba.Rule{Pivot: dagba.Ghost}}
		cfg := agreement.RandomizedConfig{N: n, T: byz, Lambda: 1, K: 21, Seed: seed}
		if _, err := slot.Run(cfg, rule, flip(rule)); err != nil {
			t.Fatal(err)
		}
	}
	if _, after := slot.Spares(); after != before {
		t.Fatalf("plain per-node trials moved the spares from %d to %d", before, after)
	}
	if !retired {
		t.Fatal("no windowed run retired anything; the window half is vacuous")
	}
}
