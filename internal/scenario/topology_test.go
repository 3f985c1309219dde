package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

func ringSpec() Spec {
	return Spec{
		Protocol: Dag, N: 8, Lambda: 1, K: 12, Seed: 5,
		Topology: TopoRing, TopologyParams: map[string]float64{"k": 1},
		DelayDist: "uniform",
	}
}

func TestBindTopologyErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"unknown topology", func(s *Spec) { s.Topology = "torus" }, "unknown topology"},
		{"unknown delay dist", func(s *Spec) { s.DelayDist = "gaussian" }, "delay"},
		{"jitter out of range", func(s *Spec) { s.LinkJitter = 1 }, "link_jitter"},
		{"negative link delay", func(s *Spec) { s.LinkDelay = -0.5 }, "link_delay"},
		{"ring too dense", func(s *Spec) { s.TopologyParams = map[string]float64{"k": 4} }, "2k < n"},
		{"non-integer param", func(s *Spec) { s.TopologyParams = map[string]float64{"k": 1.5} }, "positive integer"},
		{"table without rows", func(s *Spec) { s.Topology = TopoTable }, "topology_table"},
		{"disconnected table", func(s *Spec) {
			s.N, s.Topology = 4, TopoTable
			s.TopologyTable = [][]float64{{0, 1}, {2, 3}}
		}, "disconnected"},
	}
	for _, c := range cases {
		spec := ringSpec()
		c.mut(&spec)
		_, err := Bind(spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	// The unknown-name error must enumerate the registry, like the other
	// registries' errors do.
	spec := ringSpec()
	spec.Topology = "torus"
	if _, err := Bind(spec); err == nil || !strings.Contains(err.Error(), Topologies.Help()) {
		t.Errorf("unknown-topology error does not enumerate the registry: %v", err)
	}
}

func TestBindTopologySyncRejected(t *testing.T) {
	spec := Spec{Protocol: Sync, N: 4, T: 1, Topology: TopoRing}
	if _, err := Bind(spec); err == nil || !strings.Contains(err.Error(), "randomized protocols only") {
		t.Fatalf("err = %v", err)
	}
	// Explicit "complete" is the default and stays valid everywhere.
	spec.Topology = TopoComplete
	if _, err := Bind(spec); err != nil {
		t.Fatalf("sync with complete topology: %v", err)
	}
}

func TestTopologyRunProducesLag(t *testing.T) {
	b, err := Bind(ringSpec())
	if err != nil {
		t.Fatal(err)
	}
	r, err := b.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verdict.OK() {
		t.Fatalf("verdict = %+v", r.Verdict)
	}
	if r.VisMeanLag <= 0 {
		t.Fatalf("VisMeanLag = %v, want > 0 on a sparse ring", r.VisMeanLag)
	}
	// The default (no topology) path reports no lag.
	spec := ringSpec()
	spec.Topology, spec.TopologyParams, spec.DelayDist = "", nil, ""
	r2 := MustBind(spec).mustRun(5)
	if r2.VisMeanLag != 0 {
		t.Fatalf("oracle path VisMeanLag = %v", r2.VisMeanLag)
	}
}

func TestTopologySweepParamsNotAliased(t *testing.T) {
	spec := ringSpec()
	spec.Topology = TopoSmallWorld
	spec.TopologyParams = map[string]float64{"k": 1}
	spec.Sweep = []Axis{{Name: "topo:beta", Values: []Value{{Num: 0}, {Num: 0.5}, {Num: 1}}}}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for i, want := range []float64{0, 0.5, 1} {
		if got := points[i].Spec.TopologyParams["beta"]; got != want {
			t.Fatalf("point %d beta = %v, want %v", i, got, want)
		}
		if got := points[i].Spec.TopologyParams["k"]; got != 1 {
			t.Fatalf("point %d lost base param k: %v", i, got)
		}
	}
	if spec.TopologyParams["beta"] != 0 || len(spec.TopologyParams) != 1 {
		t.Fatalf("expansion mutated the root spec's params: %v", spec.TopologyParams)
	}
}

func TestBuildTopology(t *testing.T) {
	g, err := BuildTopology(ringSpec())
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 8 || g.NumEdges() != 8 {
		t.Fatalf("ring graph: n=%d edges=%d", g.N(), g.NumEdges())
	}
	// "complete" materializes an explicit mesh for inspection, unlike the
	// nil oracle marker Bind uses internally.
	g, err = BuildTopology(Spec{Protocol: Dag, N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsComplete() || g.N() != 5 {
		t.Fatalf("complete graph: %+v", g)
	}
}

// TestTopologySweepWorkerInvariance is the PR's acceptance criterion at
// the scenario level: a gossip-delayed sweep must aggregate to
// byte-identical JSON whether the trials run on one worker or eight.
func TestTopologySweepWorkerInvariance(t *testing.T) {
	spec := ringSpec()
	spec.Trials = 6
	spec.Metrics = []string{"ok", "duration", "vis-lag"}
	spec.Sweep = []Axis{
		{Name: "topology", Values: []Value{
			{Str: "complete", IsStr: true},
			{Str: "ring", IsStr: true},
			{Str: "smallworld", IsStr: true},
		}},
		{Name: "delay_dist", Values: []Value{
			{Str: "fixed", IsStr: true},
			{Str: "longtail", IsStr: true},
		}},
	}
	run := func(workers int) []byte {
		res, err := RunSpec(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(1), run(8)
	if string(a) != string(b) {
		t.Fatalf("sweep diverges across worker counts:\n%s\n%s", a, b)
	}
}
