package distrib

import (
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
)

// Real worker processes (this test binary re-exec'd in stdio-worker mode,
// see TestMain) over the full quick suite: the distributed result must be
// identical to the in-process run.
func TestProcessWorkersMatchLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	// One fleet serves every spec: a session outlives its runs.
	procs := spawnProcWorkers(t, 3)
	for _, spec := range quickSpecs() {
		local := mustRunLocal(t, spec)
		dist, stats, err := Run(spec, Config{Workers: transports(procs), ChunkSize: 3})
		if err != nil {
			t.Fatalf("spec %s: %v", spec.Name, err)
		}
		assertSameResult(t, spec, local, dist)
		if stats.Dispatched == 0 {
			t.Fatalf("spec %s: nothing dispatched to the workers: %+v", spec.Name, stats)
		}
		if stats.LostWorker != 0 {
			t.Fatalf("spec %s: healthy workers reported lost: %+v", spec.Name, stats)
		}
	}
}

// A fleet serves run after run: three Runs over one spawned fleet and
// over one loopback fleet each match the local run with every lease
// dispatched (nothing lost, retried or run inline), and a spawned worker
// exits cleanly once its transport is closed.
func TestFleetReuseAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	specs := quickSpecs()[:3]
	procs := spawnProcWorkers(t, 2)
	fleets := map[string][]Transport{
		"spawned":  transports(procs),
		"loopback": {Loopback(), Loopback()},
	}
	defer closeAll(fleets["loopback"])
	for name, ws := range fleets {
		for _, spec := range specs {
			local := mustRunLocal(t, spec)
			dist, stats, err := Run(spec, Config{Workers: ws, ChunkSize: 3})
			if err != nil {
				t.Fatalf("%s fleet, spec %s: %v", name, spec.Name, err)
			}
			assertSameResult(t, spec, local, dist)
			if stats.Retries != 0 || stats.LostWorker != 0 || stats.Inline != 0 || stats.Dispatched != stats.Leases {
				t.Fatalf("%s fleet, spec %s: a live fleet lost, retried or inlined leases: %+v", name, spec.Name, stats)
			}
		}
	}
	for _, p := range procs {
		p.Close()
		if st := p.cmd.ProcessState; st == nil || !st.Success() {
			t.Fatalf("worker %d did not exit cleanly after Close: %v", p.Pid(), st)
		}
	}
}

// killOnLease kills its worker process right after sending it the first
// lease, so the worker dies with work in flight however fast trials run.
type killOnLease struct {
	*Proc
	once sync.Once
}

func (k *killOnLease) Send(m *Msg) error {
	err := k.Proc.Send(m)
	if m.Type == msgLease {
		k.once.Do(func() { k.Proc.Kill() })
	}
	return err
}

// Kill one worker mid-sweep: the run must finish with byte-identical
// output — a lost worker changes wall clock, never results.
func TestKilledWorkerDoesNotChangeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	spec := scenario.Spec{Name: "killed", Protocol: scenario.Dag, N: 12, T: 5, Lambda: 1, K: 31,
		Attack: "private-chain", Trials: 48, Seed: 9,
		Metrics: []string{"ok", "validity", "decide-time", "byz-prefix-share"},
		Sweep:   []scenario.Axis{{Name: "lambda", Values: []scenario.Value{{Num: 0.5}, {Num: 1}, {Num: 2}}}}}
	local := mustRunLocal(t, spec)

	procs := spawnProcWorkers(t, 3)
	workers := transports(procs)
	workers[0] = &killOnLease{Proc: procs[0]}

	dist, stats, err := Run(spec, Config{
		Workers:      workers,
		ChunkSize:    4,
		LeaseTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, spec, local, dist)
	// The victim may in rare schedules die between leases with nothing in
	// flight (lost but no retry), but it must at least be noticed.
	if stats.LostWorker == 0 {
		t.Fatalf("killed worker was never declared lost: %+v", stats)
	}
	t.Logf("kill run stats: %+v", stats)
}

// Warm-cache re-run: after one complete distributed run into a cache
// directory, a second run must serve >= 90%% of its leases from cache
// (here: all of them) and still match the local run.
func TestWarmCacheRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	spec := scenario.Spec{Name: "warm", Protocol: scenario.Chain, N: 10, T: 3, Lambda: 1, K: 21,
		Attack: "tiebreak", Trials: 24, Seed: 12,
		Sweep: []scenario.Axis{{Name: "lambda", Values: []scenario.Value{{Num: 0.5}, {Num: 1}}}}}
	local := mustRunLocal(t, spec)
	dir := t.TempDir()

	procs := spawnProcWorkers(t, 2)
	cold, err := NewCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := Run(spec, Config{Workers: transports(procs), Cache: cold, ChunkSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, spec, local, r1)

	warm, err := NewCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	procs2 := spawnProcWorkers(t, 2)
	r2, s2, err := Run(spec, Config{Workers: transports(procs2), Cache: warm, ChunkSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, spec, local, r2)
	if s2.Leases == 0 || s2.FromCache*10 < s2.Leases*9 {
		t.Fatalf("warm re-run served %d/%d leases from cache, want >= 90%%", s2.FromCache, s2.Leases)
	}
}
