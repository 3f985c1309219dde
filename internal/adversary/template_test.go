package adversary_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/appendmem"
	"repro/internal/chain"
)

// fingerprint renders everything observable about one run — the verdict,
// timing, every message's (author, value, parents), and every decision —
// so two runs fingerprint equal iff they are byte-identical.
func fingerprint(r *agreement.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "verdict=%+v dur=%v grants=%d appends=%d byz=%d\n",
		r.Verdict, r.Duration, r.Grants, r.TotalAppends, r.ByzAppends)
	v := r.FinalView
	for i := 0; i < v.Size(); i++ {
		m := v.Message(appendmem.MsgID(i))
		fmt.Fprintf(&sb, "msg %d a=%d v=%d p=%v\n", i, m.Author, m.Value, m.Parents)
	}
	for i, d := range r.Outcome.Decided {
		if d {
			fmt.Fprintf(&sb, "node %d decided %+d at %v\n", i, r.Outcome.Decision[i], r.DecideTime[i])
		}
	}
	return sb.String()
}

var updatePresets = flag.Bool("update", false, "rewrite testdata/presets_golden.txt instead of comparing")

// presetPoint is one run of a preset under the golden: the configuration,
// the honest rule and the preset adversary.
type presetPoint struct {
	name   string
	cfg    agreement.RandomizedConfig
	rule   agreement.HonestRule
	preset func() agreement.Adversary
}

// chainPresetPoints are the chain presets × tie-break rules × seeds.
func chainPresetPoints() []presetPoint {
	cases := []struct {
		name   string
		params adversary.Params
	}{{"fork", adversary.Fork}, {"tiebreak", adversary.TieBreak}, {"equivocate", adversary.Equivocate}}
	tbs := []struct {
		name string
		tb   chain.TieBreaker
	}{
		{"first", chain.FirstTieBreaker{}},
		{"random", chain.RandomTieBreaker{}},
		{"adversarial", chain.AdversarialTieBreaker{
			IsByzantine: func(id appendmem.NodeID) bool { return int(id) >= 10-3 },
		}},
	}
	var pts []presetPoint
	for _, c := range cases {
		for _, tb := range tbs {
			for seed := uint64(1); seed <= 8; seed++ {
				pts = append(pts, presetPoint{
					name:   fmt.Sprintf("chain/%s/%s/seed%d", c.name, tb.name, seed),
					cfg:    agreement.RandomizedConfig{N: 10, T: 3, Lambda: 1, K: 21, Seed: seed},
					rule:   chainba.Rule{TB: tb.tb},
					preset: func() agreement.Adversary { return &adversary.ChainAttack{P: c.params} },
				})
			}
		}
	}
	return pts
}

// dagPresetPoints are the DAG presets × pivot rules × seeds.
func dagPresetPoints() []presetPoint {
	cases := []struct {
		name   string
		params adversary.Params
	}{{"private-chain", adversary.PrivateChain}, {"last-minute", adversary.LastMinute}, {"private-fork", adversary.PrivateFork}}
	var pts []presetPoint
	for _, c := range cases {
		for _, pivot := range []dagba.PivotRule{dagba.Ghost, dagba.Longest} {
			for seed := uint64(1); seed <= 8; seed++ {
				pts = append(pts, presetPoint{
					name:   fmt.Sprintf("dag/%s/%v/seed%d", c.name, pivot, seed),
					cfg:    agreement.RandomizedConfig{N: 10, T: 4, Lambda: 1, K: 21, Seed: seed},
					rule:   dagba.Rule{Pivot: pivot},
					preset: func() agreement.Adversary { return &adversary.DagAttack{P: c.params, Pivot: pivot} },
				})
			}
		}
	}
	return pts
}

// goldenEntry renders one point's golden entry: its name and the SHA-256
// of the run's full fingerprint, then its decisions in readable form.
func goldenEntry(name string, r *agreement.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %x\n\tdecided", name, sha256.Sum256([]byte(fingerprint(r))))
	for i, d := range r.Outcome.Decided {
		if d {
			fmt.Fprintf(&b, " %d:%+d@%v", i, r.Outcome.Decision[i], r.DecideTime[i])
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// presetsGolden returns the committed golden's entries by point name,
// after rewriting the file under -update. The golden was first written by
// the hand-coded strategies the presets replaced; regenerate it only for
// an intended behaviour change.
func presetsGolden(t *testing.T) map[string]string {
	t.Helper()
	path := filepath.Join("testdata", "presets_golden.txt")
	pts := append(chainPresetPoints(), dagPresetPoints()...)
	if *updatePresets {
		var b strings.Builder
		for _, p := range pts {
			b.WriteString(goldenEntry(p.name, agreement.MustRun(p.cfg, p.rule, p.preset())))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	entries := make(map[string]string)
	for i := 0; i+1 < len(lines); i += 2 {
		name, _, _ := strings.Cut(lines[i], " ")
		entries[name] = lines[i] + lines[i+1]
	}
	if len(entries) != len(pts) {
		t.Fatalf("%s holds %d entries, want %d", path, len(entries), len(pts))
	}
	return entries
}

// checkPresets runs every point's preset and compares it with the golden.
func checkPresets(t *testing.T, pts []presetPoint) {
	golden := presetsGolden(t)
	for _, p := range pts {
		r := agreement.MustRun(p.cfg, p.rule, p.preset())
		if got, want := goldenEntry(p.name, r), golden[p.name]; got != want {
			t.Fatalf("%s: diverges from the golden\n got: %s\nwant: %s\nrun:\n%s", p.name, got, want, fingerprint(r))
		}
	}
}

// TestChainPresetsByteIdentical pins the ChainAttack template at the three
// chain presets to the committed golden across seeds and tie-break rules.
func TestChainPresetsByteIdentical(t *testing.T) { checkPresets(t, chainPresetPoints()) }

// TestDagPresetsByteIdentical pins the DagAttack template at the three DAG
// presets to the committed golden across seeds and pivot rules.
func TestDagPresetsByteIdentical(t *testing.T) { checkPresets(t, dagPresetPoints()) }

// TestSchemaValidation exercises the parameter schema: unknown names are
// rejected with the valid set enumerated, range and kind violations are
// rejected, and valid overrides land in the right fields.
func TestSchemaValidation(t *testing.T) {
	s := adversary.ChainSchema()
	if _, err := s.Resolve(adversary.Params{}, map[string]adversary.ParamValue{
		"no_such": adversary.IntVal(1)}); err == nil || !strings.Contains(err.Error(), "fork_count") {
		t.Fatalf("unknown parameter not rejected with valid set: %v", err)
	}
	if _, err := s.Resolve(adversary.Params{}, map[string]adversary.ParamValue{
		"fork_count": adversary.IntVal(-1)}); err == nil || !strings.Contains(err.Error(), "range") {
		t.Fatalf("out-of-range int not rejected: %v", err)
	}
	if _, err := s.Resolve(adversary.Params{}, map[string]adversary.ParamValue{
		"fork_count": adversary.FloatVal(1.5)}); err == nil {
		t.Fatalf("non-integer int not rejected")
	}
	if _, err := s.Resolve(adversary.Params{}, map[string]adversary.ParamValue{
		"target": adversary.StrVal("nonsense")}); err == nil {
		t.Fatalf("bad enum not rejected")
	}
	p, err := s.Resolve(adversary.Params{ForkPeriod: 1, Fanout: 1}, map[string]adversary.ParamValue{
		"fork_count":  adversary.IntVal(2),
		"fork_period": adversary.IntVal(4),
		"fork_lonely": adversary.BoolVal(true),
		"target":      adversary.StrVal(adversary.TargetFirst),
		"withhold":    adversary.FloatVal(0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.ForkCount != 2 || p.ForkPeriod != 4 || !p.ForkLonely || p.Target != adversary.TargetFirst || p.Withhold != 0.5 {
		t.Fatalf("overrides not applied: %+v", p)
	}

	d := adversary.DagSchema()
	if _, err := d.Resolve(adversary.Params{}, map[string]adversary.ParamValue{
		"fork_count": adversary.IntVal(1)}); err == nil {
		t.Fatalf("chain parameter accepted by dag schema")
	}
}

// TestTemplateNewCapabilities smoke-tests parameterizations outside the
// preset space: they must run, terminate and stay deterministic.
func TestTemplateNewCapabilities(t *testing.T) {
	chainP := adversary.Params{ForkCount: 2, ForkPeriod: 3, Target: adversary.TargetFirst, Fanout: 3, Withhold: 0.5}
	dagP := adversary.Params{Root: adversary.RootGenesis, Segment: 4, Fanout: 3, Withhold: 0.25}
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := agreement.RandomizedConfig{N: 10, T: 4, Lambda: 1, K: 21, Seed: seed}
		a := fingerprint(agreement.MustRun(cfg, chainba.Rule{TB: chain.FirstTieBreaker{}}, &adversary.ChainAttack{P: chainP}))
		b := fingerprint(agreement.MustRun(cfg, chainba.Rule{TB: chain.FirstTieBreaker{}}, &adversary.ChainAttack{P: chainP}))
		if a != b {
			t.Fatalf("chain template with withhold is not deterministic at seed %d", seed)
		}
		a = fingerprint(agreement.MustRun(cfg, dagba.Rule{Pivot: dagba.Ghost}, &adversary.DagAttack{P: dagP, Pivot: dagba.Ghost}))
		b = fingerprint(agreement.MustRun(cfg, dagba.Rule{Pivot: dagba.Ghost}, &adversary.DagAttack{P: dagP, Pivot: dagba.Ghost}))
		if a != b {
			t.Fatalf("dag template with withhold is not deterministic at seed %d", seed)
		}
	}
}
