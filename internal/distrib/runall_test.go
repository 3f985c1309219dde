package distrib

import (
	"errors"
	"testing"

	"repro/internal/scenario"
)

// batchSpecs is quickSpecs plus specs that share lease keys with earlier
// ones: the same spec under another name, and a larger trial count (as a
// search rung escalates), whose leading chunks an earlier spec planned.
func batchSpecs() []scenario.Spec {
	specs := quickSpecs()
	again := specs[0]
	again.Name = "dag-private-again"
	more := specs[1]
	more.Name, more.Trials = "chain-tiebreak-more", 2*more.Trials
	return append(specs, again, more)
}

// RunAll is one Run per spec in order: the same results and the summed
// Stats, inline and over a loopback fleet, with and without a cache. With
// a cache, leases whose keys an earlier spec of the batch planned are
// served from that spec, as the sequential runs find them in the cache.
func TestRunAllMatchesSequentialRuns(t *testing.T) {
	specs := batchSpecs()
	for _, tc := range []struct {
		name    string
		workers int
		cache   bool
	}{
		{"inline", 0, false},
		{"inline-cache", 0, true},
		{"loopback", 2, false},
		{"loopback-cache", 2, true},
	} {
		config := func() Config {
			cfg := Config{ChunkSize: 4}
			for i := 0; i < tc.workers; i++ {
				cfg.Workers = append(cfg.Workers, Loopback())
			}
			if tc.cache {
				c, err := NewCache("", 0)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Cache = c
			}
			return cfg
		}

		seqCfg := config()
		var seqStats Stats
		var seq []*scenario.SweepResult
		for _, spec := range specs {
			res, st, err := Run(spec, seqCfg)
			if err != nil {
				t.Fatalf("%s: sequential %s: %v", tc.name, spec.Name, err)
			}
			seq = append(seq, res)
			seqStats.Add(*st)
		}
		closeAll(seqCfg.Workers)

		batchCfg := config()
		batch, stats, err := RunAll(specs, batchCfg)
		closeAll(batchCfg.Workers)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, spec := range specs {
			assertSameResult(t, spec, seq[i], batch[i])
		}
		if *stats != seqStats {
			t.Fatalf("%s: batch stats %+v, sequential runs %+v", tc.name, *stats, seqStats)
		}
		if tc.cache && stats.FromCache == 0 {
			t.Fatalf("%s: no lease was shared across specs: %+v", tc.name, *stats)
		}
		if tc.workers > 0 && (stats.Inline != 0 || stats.Dispatched == 0) {
			t.Fatalf("%s: the fleet did not run the batch: %+v", tc.name, *stats)
		}
	}
}

// A failing spec is named by index: a bind error before any lease runs,
// and a worker's lease error during the dispatch.
func TestRunAllNamesFailingSpec(t *testing.T) {
	good := quickSpecs()[2]
	bad := scenario.Spec{Protocol: "nonesuch", N: 8, Trials: 2}
	_, _, err := RunAll([]scenario.Spec{good, bad}, Config{})
	var se *SpecError
	if !errors.As(err, &se) || se.Spec != 1 {
		t.Fatalf("bind error not attributed to spec 1: %v", err)
	}

	ft := newScriptedTransport()
	ft.script = func(m *Msg) *Msg {
		if m.Type == msgLease && m.Spec.Inputs == "split:1" {
			return &Msg{Type: msgError, ID: m.ID, Err: "synthetic trial panic"}
		}
		return &Msg{Type: msgResult, ID: m.ID, Vals: PackVals(make([][]float64, m.Hi-m.Lo))}
	}
	failing := good
	failing.Inputs = "split:1"
	_, _, err = RunAll([]scenario.Spec{good, failing}, Config{Workers: []Transport{ft}, ChunkSize: 4})
	if !errors.As(err, &se) || se.Spec != 1 {
		t.Fatalf("lease error not attributed to spec 1: %v", err)
	}
}
