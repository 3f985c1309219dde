package agreement_test

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// perNodeOnly hides a rule's Recycler, so the harness skips the trial
// step and gives every node its own decision index.
type perNodeOnly struct{ agreement.HonestRule }

func (p perNodeOnly) NewNodeRule() agreement.HonestRule {
	return p.HonestRule.(agreement.PerNodeState).NewNodeRule()
}

// stateless hides both split steps, so every node shares the zero-value
// rule, which rebuilds its index on each call. Such a rule reads from the
// first message on, so its floor retires nothing.
type stateless struct{ agreement.HonestRule }

func (stateless) ViewFloor() int    { return 0 }
func (stateless) CompactTo(int) int { return 0 }

// indexSetups are the three ways the harness can hold a rule's indexes.
var indexSetups = []struct {
	name string
	wrap func(agreement.HonestRule) agreement.HonestRule
}{
	{"shared", func(r agreement.HonestRule) agreement.HonestRule { return r }},
	{"per-node", func(r agreement.HonestRule) agreement.HonestRule { return perNodeOnly{r} }},
	{"stateless", func(r agreement.HonestRule) agreement.HonestRule { return stateless{r} }},
}

// sharedCase is one protocol under the cross-path differential: the rule
// at a confirmation depth, and the template attack it faces.
type sharedCase struct {
	name   string
	rule   func(confirm int) agreement.HonestRule
	attack func() agreement.Adversary
}

func sharedCases(n, t int) []sharedCase {
	adversarialTB := chain.AdversarialTieBreaker{
		IsByzantine: func(id appendmem.NodeID) bool { return int(id) >= n-t },
	}
	var cases []sharedCase
	for _, pivot := range []dagba.PivotRule{dagba.Ghost, dagba.Longest} {
		for _, confirm := range []int{0, 3} {
			cases = append(cases, sharedCase{
				name: fmt.Sprintf("dag-%v-c%d", pivot, confirm),
				rule: func(c int) agreement.HonestRule { return dagba.Rule{Pivot: pivot, Confirm: confirm + c} },
				attack: func() agreement.Adversary {
					return &adversary.DagAttack{P: adversary.PrivateChain, Pivot: pivot}
				},
			})
		}
	}
	for _, tb := range []struct {
		name string
		tb   chain.TieBreaker
	}{{"random", chain.RandomTieBreaker{}}, {"adversarial", adversarialTB}} {
		cases = append(cases, sharedCase{
			name:   "chain-" + tb.name,
			rule:   func(c int) agreement.HonestRule { return chainba.Rule{TB: tb.tb, Confirm: c} },
			attack: func() agreement.Adversary { return &adversary.ChainAttack{P: adversary.Fork} },
		})
	}
	return cases
}

// smallWorld returns a connected small-world graph over n nodes.
func smallWorld(seed uint64, n int) *topology.Graph {
	for stream := uint64(7); ; stream++ {
		if g := topology.WattsStrogatz(xrand.New(seed, stream), n, 2, 0.3, 0.5); g.Connected() {
			return g
		}
	}
}

// TestSharedIndexDifferential runs every protocol case through the three
// index setups — trial-shared, per-node only, stateless — under every
// timing model and mode the harness offers, and requires identical
// results: verdicts, decisions, decision times and view sizes, and every
// message with its parents. Odd seeds face the template attack, even ones
// the value-flip adversary (whose rule instance takes the same setup); the
// windowed and resumed runs need the value flip's floors and stateless
// state.
func TestSharedIndexDifferential(t *testing.T) {
	const n, byz, seeds = 7, 2, 20
	modes := []struct {
		name string
		cfg  func(cfg *agreement.RandomizedConfig)
	}{
		{"default", func(*agreement.RandomizedConfig) {}},
		{"fresh", func(cfg *agreement.RandomizedConfig) { cfg.FreshHonestReads = true }},
		{"async", func(cfg *agreement.RandomizedConfig) { cfg.AsyncDelayMax = 2 }},
		{"window", func(cfg *agreement.RandomizedConfig) { cfg.K, cfg.Window = 81, 2 }},
		{"resume", func(*agreement.RandomizedConfig) {}},
		{"smallworld", func(cfg *agreement.RandomizedConfig) {
			cfg.Topology = smallWorld(cfg.Seed, cfg.N)
			cfg.TopologyDelay = topology.DelayModel{Kind: topology.DelayUniform}
		}},
	}
	for _, pc := range sharedCases(n, byz) {
		for _, mode := range modes {
			t.Run(pc.name+"/"+mode.name, func(t *testing.T) {
				retired := false
				for seed := uint64(1); seed <= seeds; seed++ {
					cfg := agreement.RandomizedConfig{N: n, T: byz, Lambda: 1, K: 21, Crashes: 1, Seed: seed}
					mode.cfg(&cfg)
					flip := seed%2 == 0 || mode.name == "window" || mode.name == "resume"
					run := func(cfg agreement.RandomizedConfig, rule agreement.HonestRule) *agreement.Result {
						t.Helper()
						var adv agreement.Adversary = &agreement.ValueFlip{Rule: rule}
						if !flip {
							adv = pc.attack()
						}
						res, err := agreement.RunRandomized(cfg, rule, adv)
						if err != nil {
							t.Fatal(err)
						}
						return res
					}

					// Resumed runs continue, one confirmation deeper, from
					// a checkpoint taken with the shared rule.
					confirm := 0
					if mode.name == "resume" {
						var cp *agreement.Checkpoint
						ccfg := cfg
						ccfg.CheckpointSink = func(c *agreement.Checkpoint) { cp = c }
						run(ccfg, pc.rule(0))
						if cp == nil {
							t.Fatalf("seed %d: no decision, no checkpoint", seed)
						}
						cfg.ResumeFrom, confirm = cp, 1
					}

					var ref *agreement.Result
					for _, setup := range indexSetups {
						got := run(cfg, setup.wrap(pc.rule(confirm)))
						if ref == nil {
							ref = got
							continue
						}
						t.Run(fmt.Sprintf("%s/seed%d", setup.name, seed), func(t *testing.T) {
							assertSameResult(t, ref, got)
							assertSameMemory(t, ref.Mem, got.Mem)
						})
					}
					// Against the plain run: resumed == from scratch,
					// windowed == unbounded.
					plain := cfg
					plain.ResumeFrom, plain.Window = nil, 0
					switch mode.name {
					case "resume":
						scratch := run(plain, pc.rule(confirm))
						assertSameResult(t, scratch, ref)
						assertSameMemory(t, scratch.Mem, ref.Mem)
					case "window":
						retired = retired || ref.MemHighWater < ref.TotalAppends
						assertSameResult(t, run(plain, pc.rule(confirm)), ref)
					}
				}
				if mode.name == "window" && !retired {
					t.Error("no windowed run retired anything; the window differential is vacuous")
				}
			})
		}
	}
}
