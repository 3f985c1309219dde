package main

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
)

// goldenPath is the committed quick-suite output at refSeed, with the
// elapsed time stripped from every banner.
const goldenPath = "internal/report/testdata/amexp-quick.golden"

// elapsedRe matches the wall-clock suffix of an experiment banner.
var elapsedRe = regexp.MustCompile(`(?m)^(### .*) \[[^\]]*\]$`)

// suitePass runs every experiment at quick scale, as amexp -e all -quick
// -check does, and returns the rendered text (elapsed stripped), the
// number of failed paper-prediction checks and, when times is non-nil,
// each experiment's wall time appended per experiment.
func suitePass(seed uint64, times [][]float64) (string, int) {
	var b strings.Builder
	failed := 0
	for i, e := range experiments.All() {
		t0 := time.Now()
		res := experiments.Run(e, experiments.Options{Quick: true, Seed: seed})
		if times != nil {
			times[i] = append(times[i], time.Since(t0).Seconds())
		}
		b.WriteString(report.Text(res))
		failed += experiments.FailedChecks(res.EvalChecks())
	}
	return elapsedRe.ReplaceAllString(b.String(), "$1"), failed
}

// suiteSetup reads the golden output and runs the warm-up experiment.
func suiteSetup(seed uint64) (string, error) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return "", fmt.Errorf("read quick-suite golden: %w", err)
	}
	e, ok := experiments.ByID(suiteWarmup)
	if !ok {
		return "", fmt.Errorf("warm-up experiment %s not found", suiteWarmup)
	}
	report.Text(experiments.Run(e, experiments.Options{Quick: true, Seed: seed}))
	return string(golden), nil
}

// suiteWarmup is the experiment set-up runs to start the worker pool and
// grow the pooled trial scratch before the first timed pass.
const suiteWarmup = "E8"

// suiteUntraced measures whole quick-suite passes. Every pass must render
// the same text; at refSeed it must equal the golden output with every
// paper prediction holding.
func suiteUntraced(r *run) error {
	var golden string
	setups, err := timeReps(setupReps, func() error {
		var err error
		golden, err = suiteSetup(r.seed)
		return err
	})
	if err != nil {
		return err
	}
	var first string
	firstFailed := -1
	units, err := repeatUntil(r.budget, func() error {
		text, failed := suitePass(r.seed, nil)
		if firstFailed < 0 {
			first, firstFailed = text, failed
		}
		r.check(text == first && failed == firstFailed,
			"quick-suite: output differs between two passes at seed %d", r.seed)
		return nil
	})
	if err != nil {
		return err
	}
	r.checkGolden(first, firstFailed, golden)
	r.recordUnits(setups, units, len(experiments.All()))
	r.set("ok_frac", r.okFrac())
	return nil
}

// checkGolden compares a pass with the golden output at refSeed, where
// every paper prediction must also hold.
func (r *run) checkGolden(text string, failed int, golden string) {
	if r.seed == refSeed {
		r.check(text == golden, "quick-suite: output at seed %d differs from %s", refSeed, goldenPath)
		r.check(failed == 0, "quick-suite: %d paper prediction check(s) failed at seed %d", failed, refSeed)
	}
}

// suiteTraced times each experiment. Passes alternate between untimed
// and per-experiment timed, so the timer's own cost shows as
// trace.overhead_frac.
func suiteTraced(r *run) error {
	golden, err := suiteSetup(r.seed)
	if err != nil {
		return err
	}
	es := experiments.All()
	times := make([][]float64, len(es))
	var plain, timed []float64
	var first string
	firstFailed := -1
	start := time.Now()
	for pass := 0; pass < 2*minUnits || time.Since(start) < r.budget; pass++ {
		var ts [][]float64
		if pass%2 == 1 {
			ts = times
		}
		t0 := time.Now()
		text, failed := suitePass(r.seed, ts)
		d := time.Since(t0).Seconds()
		if ts == nil {
			plain = append(plain, d)
		} else {
			timed = append(timed, d)
		}
		if firstFailed < 0 {
			first, firstFailed = text, failed
		}
		r.check(text == first && failed == firstFailed,
			"quick-suite: output differs between two passes at seed %d", r.seed)
		r.attempted += int64(len(es))
	}
	r.checkGolden(first, firstFailed, golden)
	for i, e := range es {
		r.set("experiments."+e.ID+"_s", median(times[i]))
	}
	r.set("experiments.failed_checks", float64(firstFailed))
	r.set("trace.overhead_frac", median(timed)/median(plain)-1)
	return nil
}
