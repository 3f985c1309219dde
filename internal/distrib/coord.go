package distrib

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// Config tunes one distributed sweep execution.
type Config struct {
	// Workers are the connected worker transports. They outlive the run:
	// one fleet serves any number of Run and RunAll calls, and whoever
	// connected it closes it to end the session. Empty means every lease
	// runs inline in this process (the cache still applies).
	Workers []Transport
	// Cache, when non-nil, serves completed leases by content address and
	// stores fresh results.
	Cache *Cache
	// LeaseTimeout bounds one lease on one worker; past it the worker is
	// declared lost and the lease reassigned. 0 means DefaultLeaseTimeout.
	LeaseTimeout time.Duration
	// ChunkSize is the trial count per lease. It shapes cache keys (a
	// different chunking addresses different content), so it defaults to a
	// fixed DefaultChunkSize independent of worker count. When unset AND no
	// cache is configured, the coordinator sizes chunks adaptively: it times
	// a first probe lease and scales subsequent chunks toward
	// TargetLeaseDuration (output bytes are identical either way — only
	// lease boundaries move).
	ChunkSize int
	// TargetLeaseDuration is the wall-clock a lease should take under
	// adaptive chunk sizing. 0 means DefaultTargetLeaseDuration.
	TargetLeaseDuration time.Duration
	// InlineWorkers caps the concurrency of leases run in this process
	// (no workers configured, probe leases, or fallback after losses):
	// 1 runs trials sequentially on the calling goroutine, <= 0 uses the
	// process-wide pool. Results are identical for any value.
	InlineWorkers int
}

// DefaultLeaseTimeout declares a worker lost when one lease exceeds it.
const DefaultLeaseTimeout = 2 * time.Minute

// DefaultTargetLeaseDuration is the adaptive chunk sizer's target: long
// enough that framing is negligible, a small fraction of the lease
// timeout so stragglers are caught quickly.
const DefaultTargetLeaseDuration = time.Second

// MaxAdaptiveChunk caps adaptive chunk growth so very fast trials still
// yield enough leases to load-balance a fleet.
const MaxAdaptiveChunk = 4096

// DefaultChunkSize is the trials-per-lease default. Small enough to load-
// balance a handful of workers on typical -trials counts, big enough that
// framing stays negligible against simulation cost — and deliberately not
// a function of the worker count, so cache keys survive -distribute
// changes.
const DefaultChunkSize = 16

// Stats reports what one distributed execution did — surfaced by
// amrun -timing and asserted by the differential tests.
type Stats struct {
	Points     int // sweep points executed
	Leases     int // total leases (cache hits included)
	FromCache  int // leases served by the result cache, or by an earlier spec of a RunAll batch
	Dispatched int // lease assignments sent to workers (retries included)
	Inline     int // leases run in-process (no workers, or all lost)
	Retries    int // lease reassignments after a worker was lost
	LostWorker int // workers declared lost (died or timed out)
}

// Add accumulates another execution's counters.
func (s *Stats) Add(o Stats) {
	s.Points += o.Points
	s.Leases += o.Leases
	s.FromCache += o.FromCache
	s.Dispatched += o.Dispatched
	s.Inline += o.Inline
	s.Retries += o.Retries
	s.LostWorker += o.LostWorker
}

// SpecError attributes a RunAll failure to the spec that caused it.
type SpecError struct {
	Spec int // index into RunAll's specs
	Err  error
}

func (e *SpecError) Error() string { return fmt.Sprintf("spec %d: %v", e.Spec, e.Err) }
func (e *SpecError) Unwrap() error { return e.Err }

// lease is one unit of dispatch: a sweep point's trial range.
type lease struct {
	id    int // batch-wide, in plan order
	spec  int // index of the spec in the batch
	point int // index into the spec's expanded points
	lo    int // trial range [lo, hi)
	hi    int
	key   string         // content address (cache + dedup)
	wire  *scenario.Spec // the point spec a worker runs
	bound *boundEntry    // the coordinator's binding, for inline runs

	vals [][]uint64 // the resolved trial vectors
	// src, set only with a cache, is the batch's first lease with the same
	// key, planned by an earlier spec: this lease shares its vectors.
	src *lease
}

// plan is one spec's share of a batch: its expanded points and leases.
type plan struct {
	spec   scenario.Spec
	names  []string
	defs   []scenario.MetricDef
	trials int
	points []scenario.Point
	leases []*lease
}

// outcome is one manager report back to the coordinator loop.
type outcome struct {
	l    *lease
	vals [][]uint64 // success
	err  error      // deterministic lease failure (never retried)
	lost bool       // transport failure or timeout; l (if any) is reassigned
}

// Run executes the spec's sweep across the configured workers and merges
// the results in (point, chunk, trial) order, yielding a SweepResult
// byte-identical to scenario.RunSpec(spec, ...) at the same seed. It is
// RunAll over the one spec.
func Run(spec scenario.Spec, cfg Config) (*scenario.SweepResult, *Stats, error) {
	res, stats, err := RunAll([]scenario.Spec{spec}, cfg)
	if err != nil {
		var se *SpecError
		if errors.As(err, &se) {
			err = se.Err
		}
		return nil, nil, err
	}
	return res[0], stats, nil
}

// RunAll executes several specs' sweeps as one batch: every spec's leases
// are planned as Run plans them (same keys, cache lookups and adaptive
// probe), all of them go through one dispatch over the fleet, and each
// spec is merged on its own. Results and Stats equal those of one Run per
// spec in order. With a cache, a lease whose key an earlier spec of the
// batch already planned is resolved from that earlier lease and counted
// as FromCache, as the sequential Run would have found it in the cache
// (barring an eviction in between). A failure is a *SpecError naming the
// spec: configuration errors surface before any lease runs, and a lease
// failure aborts the whole batch.
func RunAll(specs []scenario.Spec, cfg Config) ([]*scenario.SweepResult, *Stats, error) {
	stats := &Stats{}
	plans := make([]*plan, len(specs))
	var todo []*lease
	var earlier map[string]*lease // with a cache: first lease per key
	if cfg.Cache != nil {
		earlier = map[string]*lease{}
	}
	nextID := 0
	for i, spec := range specs {
		p, err := planSpec(spec, i, nextID, cfg, stats)
		if err != nil {
			return nil, nil, &SpecError{Spec: i, Err: err}
		}
		plans[i] = p
		nextID += len(p.leases)
		// Serve what the batch or the cache already knows (the probe lease,
		// if any, is already resolved).
		for _, l := range p.leases {
			if l.vals != nil {
				continue
			}
			if src := earlier[l.key]; src != nil {
				l.src = src
				stats.FromCache++
				continue
			}
			if cfg.Cache != nil {
				if vals, ok := cfg.Cache.Get(l.key); ok {
					l.vals = vals
					stats.FromCache++
					continue
				}
			}
			todo = append(todo, l)
		}
		if earlier != nil {
			for _, l := range p.leases {
				if earlier[l.key] == nil {
					earlier[l.key] = l
				}
			}
		}
	}

	if err := dispatchLeases(todo, cfg, stats); err != nil {
		return nil, nil, err
	}

	out := make([]*scenario.SweepResult, len(plans))
	for i, p := range plans {
		res, err := p.merge()
		if err != nil {
			return nil, nil, &SpecError{Spec: i, Err: err}
		}
		out[i] = res
	}
	return out, stats, nil
}

// planSpec binds every point of one spec and plans its leases point-major
// in chunk order, numbering them from firstID. Points, leases and the
// adaptive probe (run here, inline) are counted into stats.
func planSpec(spec scenario.Spec, specIdx, firstID int, cfg Config, stats *Stats) (*plan, error) {
	if spec.Checkpoint {
		return nil, fmt.Errorf("distrib: checkpointed sweeps are in-process only (a checkpoint cannot cross a process boundary); drop -distribute or checkpoint")
	}
	names, defs, err := scenario.ResolveMetrics(spec)
	if err != nil {
		return nil, err
	}
	trials := spec.Trials
	if trials <= 0 {
		trials = 1
	}
	chunk := cfg.ChunkSize
	// Adaptive chunk sizing only applies without a cache: cache keys are
	// chunk-shaped, and a wall-clock-dependent chunking would make keys
	// unreproducible across runs.
	adaptive := chunk <= 0 && cfg.Cache == nil
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	points, err := spec.Expand()
	if err != nil {
		return nil, err
	}

	// Pre-bind every point, exactly like the in-process executor: all
	// configuration errors surface here, before any lease is dispatched or
	// served from cache — and the bounds double as the inline fallback.
	bounds := make([]*boundEntry, len(points))
	for i, pt := range points {
		b, err := scenario.Bind(pt.Spec)
		if err != nil {
			return nil, err
		}
		extract, err := b.MetricExtractors(defs)
		if err != nil {
			return nil, err
		}
		bounds[i] = &boundEntry{bound: b, extract: extract}
	}

	// Adaptive sizing: run the first chunk of the first point inline as a
	// timed probe, then scale the remaining chunks so one lease takes about
	// TargetLeaseDuration. Only lease boundaries move — the merge
	// concatenates chunk vectors in (point, trial) order, so the output
	// stays byte-identical to any other chunking.
	probeHi := 0
	var probeVals [][]uint64
	if adaptive && trials > chunk {
		probeHi = chunk
		start := time.Now()
		probeVals = PackVals(bounds[0].bound.RunTrialValues(bounds[0].extract, 0, probeHi, cfg.InlineWorkers))
		elapsed := time.Since(start)
		target := cfg.TargetLeaseDuration
		if target <= 0 {
			target = DefaultTargetLeaseDuration
		}
		if elapsed > 0 {
			scaled := int(float64(probeHi) * float64(target) / float64(elapsed))
			if scaled < 1 {
				scaled = 1
			}
			if scaled > MaxAdaptiveChunk {
				scaled = MaxAdaptiveChunk
			}
			chunk = scaled
		}
	}

	// The wire spec pins the resolved metric names so a worker (and the
	// cache key) can never disagree with the coordinator about what to
	// extract; the PointResult keeps the original point spec untouched.
	p := &plan{spec: spec, names: names, defs: defs, trials: trials, points: points}
	add := func(point, lo, hi int, wire *scenario.Spec) *lease {
		l := &lease{id: firstID + len(p.leases), spec: specIdx, point: point, lo: lo, hi: hi,
			key: LeaseKey(*wire, wire.Seed, lo, hi), wire: wire, bound: bounds[point]}
		p.leases = append(p.leases, l)
		return l
	}
	for i, pt := range points {
		wire := pt.Spec
		wire.Metrics = names
		lo := 0
		if i == 0 && probeHi > 0 {
			// The probe is point 0's first lease, already resolved.
			add(0, 0, probeHi, &wire).vals = probeVals
			stats.Inline++
			lo = probeHi
		}
		for ; lo < trials; lo += chunk {
			add(i, lo, min(lo+chunk, trials), &wire)
		}
	}
	stats.Points += len(points)
	stats.Leases += len(p.leases)
	return p, nil
}

// merge concatenates, per point, the chunk vectors in chunk order and
// replays the in-process fold.
func (p *plan) merge() (*scenario.SweepResult, error) {
	out := &scenario.SweepResult{Spec: p.spec}
	for _, ax := range p.spec.Sweep {
		out.Axes = append(out.Axes, ax.Name)
	}
	byPoint := make([][][]float64, len(p.points))
	for i := range byPoint {
		byPoint[i] = make([][]float64, 0, p.trials)
	}
	for _, l := range p.leases {
		vals := l.vals
		if l.src != nil {
			vals = l.src.vals
		}
		if len(vals) != l.hi-l.lo {
			return nil, fmt.Errorf("distrib: lease %d (point %d trials [%d,%d)) yielded %d vectors, want %d",
				l.id, l.point, l.lo, l.hi, len(vals), l.hi-l.lo)
		}
		byPoint[l.point] = append(byPoint[l.point], UnpackVals(vals)...)
	}
	for i, pt := range p.points {
		out.Points = append(out.Points, scenario.PointResult{
			Spec: pt.Spec, Coords: pt.Coords, Trials: p.trials,
			Metrics: scenario.FoldMetrics(p.names, p.defs, p.trials, byPoint[i]),
		})
	}
	return out, nil
}

// resolve records a computed lease result, and stores it in the cache.
func (l *lease) resolve(vals [][]uint64, cache *Cache) {
	l.vals = vals
	if cache != nil {
		cache.Put(l.key, vals)
	}
}

// runInline runs one lease in this process.
func runInline(l *lease, cfg Config, stats *Stats) {
	stats.Inline++
	l.resolve(PackVals(l.bound.bound.RunTrialValues(l.bound.extract, l.lo, l.hi, cfg.InlineWorkers)), cfg.Cache)
}

// dispatchLeases drives the worker fleet over the todo list: every worker
// gets a manager goroutine pulling from one shared lease channel, lost
// workers (transport error or lease timeout) have their in-flight lease
// reassigned, and when no workers remain the leftovers run inline — a
// killed worker can change wall clock, never output. It returns only once
// every manager has, so no goroutine is left reading a transport: the
// fleet is ready for the next run.
func dispatchLeases(todo []*lease, cfg Config, stats *Stats) error {
	if len(todo) == 0 {
		return nil
	}
	if len(cfg.Workers) == 0 {
		for _, l := range todo {
			runInline(l, cfg, stats)
		}
		return nil
	}
	timeout := cfg.LeaseTimeout
	if timeout <= 0 {
		timeout = DefaultLeaseTimeout
	}

	// Requeues keep the lease channel at most len(todo) deep (a lease is
	// queued, assigned, or resolved — never two at once), and each lease
	// has exactly one terminal outcome while lost outcomes consume a
	// worker each, so both channels are sized to never block a sender.
	leaseCh := make(chan *lease, len(todo))
	outcomes := make(chan outcome, len(todo)+len(cfg.Workers))
	for _, l := range todo {
		leaseCh <- l
	}
	var dispatched atomic.Int64
	var managers sync.WaitGroup
	for _, w := range cfg.Workers {
		managers.Add(1)
		go func() {
			defer managers.Done()
			manage(w, leaseCh, outcomes, timeout, &dispatched)
		}()
	}

	live := len(cfg.Workers)
	pending := len(todo)
	var firstErr error
	for pending > 0 && live > 0 && firstErr == nil {
		o := <-outcomes
		switch {
		case o.lost:
			stats.LostWorker++
			live--
			if o.l != nil {
				stats.Retries++
				leaseCh <- o.l
			}
		case o.err != nil:
			firstErr = &SpecError{Spec: o.l.spec, Err: o.err}
		default:
			o.l.resolve(o.vals, cfg.Cache)
			pending--
		}
	}
	// Release the surviving managers. Drain first so an abort (or the
	// all-workers-lost fallback) does not leave them grinding stale work;
	// a manager with a lease in flight finishes it, and its outcome is
	// dropped.
	remaining := drain(leaseCh)
	close(leaseCh)
	managers.Wait()
	stats.Dispatched += int(dispatched.Load())
	if firstErr != nil {
		return firstErr
	}
	for _, l := range remaining {
		runInline(l, cfg, stats)
	}
	return nil
}

// drain empties the lease channel without closing it.
func drain(ch chan *lease) []*lease {
	var out []*lease
	for {
		select {
		case l := <-ch:
			out = append(out, l)
		default:
			return out
		}
	}
}

// manage drives one worker for one dispatch: send a lease, await its
// reply under the timeout, repeat until the lease channel closes. It
// reads the transport only synchronously, inside exchange, so once the
// dispatch returns nothing reads it and the worker's next reply belongs
// to the next run. Any transport error, timeout or unpaired reply retires
// the worker: its transport is closed, so a straggling reply can never
// surface later, which makes duplicate results impossible and
// reassignment safe. A retired worker stays closed; later runs fail on
// Send and reassign its leases the same way.
func manage(t Transport, leaseCh <-chan *lease, outcomes chan<- outcome,
	timeout time.Duration, dispatched *atomic.Int64) {
	for l := range leaseCh {
		dispatched.Add(1)
		m, ok := exchange(t, &Msg{Type: msgLease, ID: l.id, Spec: l.wire, Lo: l.lo, Hi: l.hi}, timeout)
		switch {
		case !ok:
			outcomes <- outcome{l: l, lost: true}
			return
		case m.Type == msgError && m.ID == l.id:
			outcomes <- outcome{l: l, err: fmt.Errorf("distrib: lease %d (point %d trials [%d,%d)): %s",
				l.id, l.point, l.lo, l.hi, m.Err)}
		case m.Type == msgResult && m.ID == l.id:
			outcomes <- outcome{l: l, vals: m.Vals}
		default:
			// Protocol confusion (wrong id, unexpected type): the worker
			// can no longer be trusted to pair replies with leases.
			t.Close()
			outcomes <- outcome{l: l, lost: true}
			return
		}
	}
}

// exchange sends one message and receives its reply within the timeout.
// On expiry a timer closes the transport, which unblocks the pending Send
// or Recv; a reply that races the timer counts as lost. A failed exchange
// leaves the transport closed.
func exchange(t Transport, out *Msg, timeout time.Duration) (Msg, bool) {
	timer := time.AfterFunc(timeout, func() { t.Close() })
	var in Msg
	err := t.Send(out)
	if err == nil {
		err = t.Recv(&in)
	}
	if !timer.Stop() {
		return in, false // the timer has closed t, or is closing it
	}
	if err != nil {
		t.Close()
		return in, false
	}
	return in, true
}
