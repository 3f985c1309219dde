// Command perfbench is the repository benchmark. One invocation runs one
// named workload through the public entry points (scenario.RunSpec,
// search.Run over a distrib worker fleet, experiments.Run), checks every
// output, and prints one JSON result line:
//
//	perfbench --workload dag-sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics, measured on the
// unmodified production calls. With --trace 1 a separate run times the
// calls into each layer from this package (wrapped rules and adversaries,
// a substrate replay, a replay of the search loop) and prints the
// per-layer table. BENCHMARK.json at the repository root names the
// workloads and metrics; NOTES.md records why each exists and what it
// should move. run.sh builds and runs the binary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/distrib"
)

// threads caps the benchmark process: every workload's load comes from
// one process using at most two threads, so figures compare across
// machines with more cores.
const threads = 2

// workload is one named load. Both methods record into the run; a failed
// output check is recorded, not returned, so the run still reports what
// it measured.
type workload struct {
	name     string
	untraced func(r *run) error
	traced   func(r *run) error
}

var workloads = []workload{
	{"dag-sweep", dagSweep.untraced, dagSweep.traced},
	{"chain-topology", chainTopology.untraced, chainTopology.traced},
	{"search-fleet", fleetUntraced, fleetTraced},
	{"quick-suite", suiteUntraced, suiteTraced},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measurement time in seconds")
		traceF  = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
		worker  = flag.Bool("worker", false, "internal: serve distrib leases over stdio (what search-fleet spawns)")
	)
	flag.Parse()
	if *worker {
		if err := distrib.ServeStdio(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := start(*name, *seed, *seconds, *traceF); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func start(name string, seed uint64, seconds float64, traceF int) error {
	decl, err := loadDeclaration("BENCHMARK.json")
	if err != nil {
		return err
	}
	if traceF != 0 && traceF != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceF)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil || !decl.hasWorkload(name) {
		return fmt.Errorf("unknown workload %q (have %v)", name, decl.workloadNames())
	}
	runtime.GOMAXPROCS(threads)

	r := &run{seed: seed, budget: time.Duration(seconds * float64(time.Second)), metrics: map[string]float64{}}
	body, class := w.untraced, decl.EndToEnd
	if traceF == 1 {
		body, class = w.traced, decl.PerLayer
	}
	if err := body(r); err != nil {
		return err
	}
	out, err := r.result(class, traceF == 0)
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%s: %d output check(s) failed", name, len(r.failures))
	}
	return nil
}

// declaration is the part of BENCHMARK.json the benchmark reads: the
// workload names and the metric names and units it must print.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric declaration: %w (run from the repository root)", err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &d, nil
}

func (d *declaration) hasWorkload(name string) bool {
	for _, w := range d.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (d *declaration) workloadNames() []string {
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// run is one benchmark invocation: its inputs, its measured metrics and
// its failed checks.
type run struct {
	seed   uint64
	budget time.Duration

	attempted int64 // operations whose output was checked
	failures  []string
	metrics   map[string]float64
}

// check records a failed output check when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.failures = append(r.failures, msg)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result assembles the output line for one metric class. Every declared
// metric is printed; an end-to-end metric the run did not measure is a
// bug, while a per-layer metric of a layer the workload never reaches
// prints as 0. A measured metric the declaration lacks is a bug too.
func (r *run) result(class []declMetric, endToEnd bool) (*resultOut, error) {
	if r.attempted < 1 {
		r.check(false, "no operation was attempted")
		r.attempted = 1
	}
	out := &resultOut{Attempted: r.attempted, Metrics: map[string]metricOut{}}
	declared := map[string]bool{}
	for _, m := range class {
		declared[m.Name] = true
		v, ok := r.metrics[m.Name]
		if !ok && endToEnd {
			return nil, fmt.Errorf("end-to-end metric %q was not measured", m.Name)
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	for name := range r.metrics {
		if !declared[name] {
			return nil, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
	}
	out.Failed = r.failed()
	out.Correct = len(r.failures) == 0
	return out, nil
}

// failed counts failed operations: each failed check fails one operation.
func (r *run) failed() int64 {
	return min(int64(len(r.failures)), r.attempted)
}

// okFrac is the share of attempted operations that did not fail.
func (r *run) okFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return 1 - float64(r.failed())/float64(r.attempted)
}
