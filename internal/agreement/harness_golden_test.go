package agreement_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/agreement/timestamp"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/xrand"
)

var updateHarness = flag.Bool("update", false, "rewrite testdata/harness_golden.txt instead of comparing")

// goldenProtocol builds one protocol's rule at a confirmation depth
// (ignored by the timestamp rule, which has none).
type goldenProtocol struct {
	name    string
	rule    func(confirm int) agreement.HonestRule
	floors  bool // the rule exposes reachability floors (window mode)
	resumes bool // the rule has a confirmation depth to resume at
}

func goldenProtocols() []goldenProtocol {
	return []goldenProtocol{
		{name: "timestamp", rule: func(int) agreement.HonestRule { return timestamp.Rule{} }},
		{name: "chain", floors: true, resumes: true, rule: func(c int) agreement.HonestRule {
			return chainba.Rule{TB: chain.RandomTieBreaker{}, Confirm: c}
		}},
		{name: "dag", floors: true, resumes: true, rule: func(c int) agreement.HonestRule {
			return dagba.Rule{Pivot: dagba.Ghost, Confirm: c}
		}},
	}
}

// goldenMode is one harness mode: a change to the base configuration and
// whether the run is traced.
type goldenMode struct {
	name   string
	traced bool
	edit   func(*agreement.RandomizedConfig)
}

func goldenModes() []goldenMode {
	return []goldenMode{
		{name: "default"},
		{name: "fresh", edit: func(c *agreement.RandomizedConfig) { c.FreshHonestReads = true }},
		{name: "async", traced: true, edit: func(c *agreement.RandomizedConfig) { c.AsyncDelayMax = 2 }},
		{name: "stall", traced: true, edit: func(c *agreement.RandomizedConfig) { c.StallAtSize = 6; c.StallFor = 3 }},
		{name: "roundrobin", edit: func(c *agreement.RandomizedConfig) { c.RoundRobinAccess = true }},
		{name: "rates", edit: func(c *agreement.RandomizedConfig) {
			c.Rates = []float64{0.5, 1, 1.5, 2, 0.75, 1.25, 3}
		}},
		{name: "crashes", traced: true, edit: func(c *agreement.RandomizedConfig) { c.Crashes = 2 }},
		{name: "smallworld", traced: true, edit: func(c *agreement.RandomizedConfig) {
			c.Topology = topology.WattsStrogatz(xrand.New(c.Seed, 99), c.N, 2, 0.3, 0.2)
			c.TopologyDelay = topology.DelayModel{Kind: topology.DelayLongTail}
		}},
		{name: "trace", traced: true},
	}
}

// harnessFingerprint renders every observable of a run: each message the
// memory still holds, each node's decision and its exact time and view
// size, the grant count, the live high-water mark, the exact bits of the
// visibility lag, and the rendered trace when the run was traced.
func harnessFingerprint(r *agreement.Result, rec *trace.Recorder) string {
	var b strings.Builder
	fmt.Fprintf(&b, "grants=%d appends=%d/%d/%d highwater=%d lag=%016x dur=%016x verdict=%+v\n",
		r.Grants, r.TotalAppends, r.CorrectAppends, r.ByzAppends, r.MemHighWater,
		math.Float64bits(r.VisMeanLag), math.Float64bits(float64(r.Duration)), r.Verdict)
	for i := range r.DecideTime {
		fmt.Fprintf(&b, "node %d decided=%v value=%d at=%016x size=%d\n", i,
			r.Outcome.Decided[i], r.Outcome.Decision[i],
			math.Float64bits(float64(r.DecideTime[i])), r.DecideViewSize[i])
	}
	fmt.Fprintf(&b, "memory from %d:", r.Mem.Watermark())
	for id := r.Mem.Watermark(); id < r.Mem.Len(); id++ {
		m := r.Mem.Message(appendmem.MsgID(id))
		fmt.Fprintf(&b, " %d/%d%v", m.Author, m.Value, m.Parents)
	}
	b.WriteByte('\n')
	if rec != nil {
		b.WriteString(rec.Render(0))
	}
	return b.String()
}

// harnessGolden runs every golden case and concatenates their
// fingerprints in case order.
func harnessGolden(t *testing.T) string {
	t.Helper()
	var out strings.Builder
	run := func(name string, cfg agreement.RandomizedConfig, rule agreement.HonestRule, rec *trace.Recorder) {
		cfg.Trace = rec
		r, err := agreement.RunRandomized(cfg, rule, &agreement.ValueFlip{Rule: rule})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&out, "== %s\n%s", name, harnessFingerprint(r, rec))
	}
	for _, p := range goldenProtocols() {
		for seed := uint64(1); seed <= 3; seed++ {
			base := agreement.RandomizedConfig{N: 7, T: 2, Lambda: 1, K: 11, Seed: seed}
			for _, m := range goldenModes() {
				cfg := base
				if m.edit != nil {
					m.edit(&cfg)
				}
				var rec *trace.Recorder
				if m.traced {
					rec = trace.New()
				}
				run(fmt.Sprintf("%s/%s/seed%d", p.name, m.name, seed), cfg, p.rule(0), rec)
			}
			if p.floors {
				cfg := base
				cfg.K, cfg.Window = 61, 48
				run(fmt.Sprintf("%s/window/seed%d", p.name, seed), cfg, p.rule(0), nil)
			}
			if p.resumes {
				var cp *agreement.Checkpoint
				cfg := base
				cfg.Crashes = 1
				cfg.CheckpointSink = func(c *agreement.Checkpoint) { cp = c }
				run(fmt.Sprintf("%s/capture/seed%d", p.name, seed), cfg, p.rule(0), nil)
				if cp == nil {
					t.Fatalf("%s seed %d: no checkpoint captured", p.name, seed)
				}
				cfg.CheckpointSink, cfg.ResumeFrom = nil, cp
				run(fmt.Sprintf("%s/resume/seed%d", p.name, seed), cfg, p.rule(5), nil)
			}
		}
	}
	return out.String()
}

// TestHarnessGolden pins RunRandomized's complete observable behaviour —
// rng draw order, event order, memory contents, decisions and traces —
// under every timing model and mode, for all three randomized-access
// protocols, against a committed golden. Regenerate with -update only for
// an intended behaviour change.
func TestHarnessGolden(t *testing.T) {
	path := filepath.Join("testdata", "harness_golden.txt")
	got := harnessGolden(t)
	if *updateHarness {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("harness output diverged at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("harness output length differs: got %d lines, want %d", len(gl), len(wl))
}
