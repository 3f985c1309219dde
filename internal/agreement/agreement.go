// Package agreement provides the shared execution harness for the
// randomized-access Byzantine agreement protocols of Section 5: the
// timestamp baseline (Algorithm 4), the Chain (Algorithm 5) and the DAG
// (Algorithm 6). The three protocols differ only in how an honest node
// appends and when/how it decides; everything else — the Poisson token
// authority, the bounded-staleness read schedule of synchronous nodes, the
// crash model, outcome collection — is identical and lives here.
//
// # Timing model
//
// Nodes are synchronous with bound Δ (§1.1): the interval between two local
// operations of one node is at most Δ. Reads are free; append access is
// rationed by the Poisson authority (rate λ per node per Δ). The harness
// realizes the synchrony bound as bounded staleness: each correct node
// refreshes its view of the memory every Δ (at a fixed per-node phase) and,
// when granted access, appends based on its most recent refresh. An append
// may therefore reference a view up to Δ old — this is exactly the source
// of honest forks in Theorem 5.4's analysis ("appends by correct nodes
// inside the same interval Δ will be concurrent and therefore generate a
// fork").
//
// Byzantine nodes are bound by nothing except the access rationing: the
// Adversary sees the memory fresh at every instant and appends whatever
// well-formed message it likes when granted access.
package agreement

import (
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/appendmem"
	"repro/internal/node"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// trialScratch is the reusable per-run state: the simulator (whose event
// heap keeps its high-water-mark capacity across runs) and the per-node
// scratch slices. Pooled via scratchPool — a runner.Pool, whose slots are
// retained across GC cycles, unlike sync.Pool's — so trial fan-outs on
// the persistent worker pool reuse warmed-up capacity instead of
// re-growing it every run; everything in it is re-initialized by
// RunRandomized, and nothing in it escapes into the returned Result (the
// Memory, which does escape, is never pooled).
type trialScratch struct {
	sim      *sim.Sim
	lastView []appendmem.View
	crashAt  []sim.Time
	rules    []HonestRule
	rngs     []*xrand.PCG
	readAt   []sim.Time
	readFns  []func()
}

var scratchPool = runner.NewPool(func() *trialScratch {
	return &trialScratch{sim: sim.New()}
})

// release zeroes the scratch (dropping references into the run's Memory and
// rule state) and returns it to the pool.
func (ts *trialScratch) release() {
	ts.sim.Reset()
	for i := range ts.lastView {
		ts.lastView[i] = appendmem.View{}
	}
	for i := range ts.rules {
		ts.rules[i] = nil
	}
	for i := range ts.rngs {
		ts.rngs[i] = nil
	}
	for i := range ts.readFns {
		ts.readFns[i] = nil
	}
	ts.lastView = ts.lastView[:0]
	ts.crashAt = ts.crashAt[:0]
	ts.rules = ts.rules[:0]
	ts.rngs = ts.rngs[:0]
	ts.readAt = ts.readAt[:0]
	ts.readFns = ts.readFns[:0]
	scratchPool.Put(ts)
}

// RandomizedConfig configures one run under randomized memory access.
type RandomizedConfig struct {
	N      int     // total nodes
	T      int     // Byzantine nodes (the last T ids)
	Lambda float64 // token rate per node per Delta
	// Rates, when non-nil, gives each node its own token rate per Delta —
	// heterogeneous "hashing power". Overrides Lambda; len must equal N.
	Rates []float64
	Delta float64 // synchrony bound; 0 means 1.0
	K     int     // decision threshold (number of values); should be odd
	Seed  uint64

	// Inputs are the per-node input values; nil means all correct nodes
	// hold +1 (the all-same-validity workload, with Byzantine inputs
	// irrelevant).
	Inputs node.Inputs

	// Crashes marks this many correct nodes crash-faulty; each stops at a
	// uniformly random time within the expected run duration.
	Crashes int

	// MaxAppends aborts the run (termination failure) once the memory
	// holds this many messages; 0 means 64*K + 64*N.
	MaxAppends int

	// FreshHonestReads removes the Δ staleness of honest nodes: appends
	// use a view read at the grant instant. This is an ablation knob — it
	// deletes the fork source of Theorem 5.4's analysis, so the chain's
	// rate-dependent collapse should disappear (experiment E12).
	FreshHonestReads bool

	// StallAtSize > 0 injects the temporal asynchrony discussed at the end
	// of Section 5.3: once the memory reaches StallAtSize messages, honest
	// nodes stop refreshing their views (and deciding) for StallFor·Δ,
	// while Byzantine nodes keep reading fresh. The paper argues this
	// reduces the DAG's Byzantine-agreement resilience — unlike Nakamoto
	// consensus, the decision prefix is fixed, so the adversary stuffs it
	// during the blackout (experiment E11).
	StallAtSize int
	StallFor    float64 // in multiples of Delta; 0 means 8

	// RoundRobinAccess replaces the Poisson token authority with the
	// burst-free deterministic round-robin authority at the same aggregate
	// rate — the access-discipline ablation of experiment E17.
	RoundRobinAccess bool

	// AsyncDelayMax > 0 makes the honest nodes asynchronous in the sense
	// of Theorem 5.1: the time between receiving an access token and
	// performing the append is no longer negligible but uniform in
	// (0, AsyncDelayMax·Δ], and the append is made against the view the
	// node held when the token arrived. The access order defined by the
	// authority then loses its meaning ("the delays are significantly
	// larger than the append rate, such that the access order ... becomes
	// insignificant"), and deterministic agreement degrades at ANY rate —
	// experiment E16.
	AsyncDelayMax float64

	// Topology, when non-nil, replaces the uniform Δ visibility of honest
	// nodes with propagation over an explicit network graph: every append
	// is flooded from its author (per-link delays shaped by
	// TopologyDelay, latencies in simulator time units), and a correct
	// node's refreshed view is the maximal fully-arrived prefix tracked
	// by access.Visibility instead of the whole memory. Appends still
	// land in the shared memory instantly — the topology delays who can
	// *see* them, which is where the paper's Δ assumption actually bites.
	// The adversary remains omniscient (fresh reads), the strongest
	// setting. The graph must have exactly N nodes and be connected. Nil
	// keeps the original code path untouched, byte for byte.
	Topology *topology.Graph
	// TopologyDelay shapes per-link transmission delays when Topology is
	// set; the zero value is the fixed distribution.
	TopologyDelay topology.DelayModel

	// Trace, when non-nil, records every grant, append, read, decision,
	// crash and blackout of the run (see internal/trace). Nil disables
	// tracing with no overhead.
	Trace *trace.Recorder

	// Window > 0 runs the memory in windowed (bounded-live) mode: every Δ
	// the harness computes the reachability watermark — the minimum
	// ViewFloor over all still-appending parties, keeping at least Window
	// messages live — compacts every party's index to it, and retires the
	// memory chunks below it back to the slab pool. Decisions are
	// unchanged; reads below the watermark panic. Requires the rule and
	// the adversary to implement WindowedRule/WindowedAdversary, and is
	// incompatible with Topology, AsyncDelayMax, StallAtSize and
	// checkpointing. 0 keeps the unbounded memory, byte for byte.
	Window int

	// CheckpointSink, when non-nil, receives the run's Checkpoint captured
	// immediately before the first decision commits (never called when no
	// node decides). ResumeFrom, when non-nil, fast-forwards the run from
	// such a checkpoint instead of simulating the shared prefix — valid
	// only when this run is guaranteed identical to the capturing run up
	// to the capture instant (e.g. the same spec with a deeper
	// confirmation). Both are incompatible with Topology, AsyncDelayMax,
	// StallAtSize, Trace and Window.
	CheckpointSink func(*Checkpoint)
	ResumeFrom     *Checkpoint
}

func (c *RandomizedConfig) fill() error {
	if c.Delta == 0 {
		c.Delta = 1
	}
	if c.N <= 0 || c.T < 0 || c.T >= c.N {
		return fmt.Errorf("agreement: invalid n=%d t=%d", c.N, c.T)
	}
	if c.Rates != nil {
		if len(c.Rates) != c.N {
			return fmt.Errorf("agreement: %d rates for %d nodes", len(c.Rates), c.N)
		}
		total := 0.0
		for _, r := range c.Rates {
			if r <= 0 {
				return fmt.Errorf("agreement: non-positive per-node rate %v", r)
			}
			total += r
		}
		c.Lambda = total / float64(c.N) // effective mean rate, for durations
	}
	if c.Lambda <= 0 || c.Delta <= 0 {
		return fmt.Errorf("agreement: invalid lambda=%v delta=%v", c.Lambda, c.Delta)
	}
	if c.K <= 0 {
		return fmt.Errorf("agreement: invalid k=%d", c.K)
	}
	if c.MaxAppends == 0 {
		c.MaxAppends = 64*c.K + 64*c.N
	}
	if c.StallAtSize > 0 && c.StallFor == 0 {
		c.StallFor = 8
	}
	if c.Inputs == nil {
		c.Inputs = node.AllSame(c.N, +1)
	}
	if len(c.Inputs) != c.N {
		return fmt.Errorf("agreement: %d inputs for %d nodes", len(c.Inputs), c.N)
	}
	if c.Topology != nil {
		if c.Topology.N() != c.N {
			return fmt.Errorf("agreement: topology has %d nodes for %d", c.Topology.N(), c.N)
		}
		if !c.Topology.Connected() {
			return fmt.Errorf("agreement: topology is disconnected")
		}
	}
	if c.Window < 0 {
		return fmt.Errorf("agreement: negative window %d", c.Window)
	}
	checkpointing := c.CheckpointSink != nil || c.ResumeFrom != nil
	if c.Window > 0 || checkpointing {
		if c.Topology != nil || c.AsyncDelayMax > 0 || c.StallAtSize > 0 {
			return fmt.Errorf("agreement: window/checkpoint modes require the default timing model (no topology, async delays or stalls)")
		}
	}
	if c.Window > 0 && checkpointing {
		return fmt.Errorf("agreement: window and checkpointing are mutually exclusive (a windowed memory cannot be cloned)")
	}
	if checkpointing && c.Trace.Enabled() {
		return fmt.Errorf("agreement: checkpointing is incompatible with tracing")
	}
	if cp := c.ResumeFrom; cp != nil {
		if len(cp.NodeRngs) != c.N || len(cp.CrashAt) != c.N || len(cp.ReadAt) != c.N || len(cp.ViewSizes) != c.N {
			return fmt.Errorf("agreement: checkpoint captured for a different node count")
		}
	}
	return nil
}

// HonestRule is the protocol-specific behaviour of a correct node.
type HonestRule interface {
	// Append performs the node's append given its (possibly stale) view.
	// Implementations must append exactly once via w.
	Append(view appendmem.View, w *appendmem.Writer, input int64, rng *xrand.PCG)
	// Decide inspects the node's freshly read view and returns the node's
	// decision when the protocol's condition (e.g. a longest chain of
	// length k) is met.
	Decide(view appendmem.View, k int, rng *xrand.PCG) (int64, bool)
}

// PerTrialState is optionally implemented by HonestRules whose correct
// nodes can share one substrate index per trial. When every correct node
// reads the whole memory (mem.Read(), every timing model except topology
// visibility), the views the nodes decide on form one monotone stream, so
// a single index extended by all of them answers every node. RunRandomized
// calls NewTrialRule once per such trial and splits the result per node
// through PerNodeState; with topology visibility (per-node arrival
// prefixes) it skips this step. The trial rule must implement
// PerNodeState, and its node rules must decide and append exactly like
// the original. When it implements WindowedRule, its floor bounds the
// shared state and windowed retirement compacts that state once.
type PerTrialState interface {
	NewTrialRule() HonestRule
}

// PerNodeState is optionally implemented by HonestRules that keep per-node
// incremental state: the memoized parents of the node's next append and
// the indexes its own views need beside a trial-shared one (see
// PerTrialState). RunRandomized calls NewNodeRule once per correct node
// and drives that node exclusively through the returned instance; a rule
// without it is shared, stateless, across all nodes. The returned rule
// must decide and append exactly like the original: per-node state is a
// performance vehicle, never a behavioural one.
type PerNodeState interface {
	NewNodeRule() HonestRule
}

// nodeRule returns the per-node instance of rule when it keeps per-node
// state, else rule itself.
func nodeRule(rule HonestRule) HonestRule {
	if f, ok := rule.(PerNodeState); ok {
		return f.NewNodeRule()
	}
	return rule
}

// Env is the run environment handed to adversaries: full fresh access to
// the memory, the roster and the configuration.
type Env struct {
	Sim    *sim.Sim
	Mem    *appendmem.Memory
	Roster node.Roster
	Cfg    RandomizedConfig
	Rng    *xrand.PCG // the adversary's private randomness
	// Inputs as handed to the nodes (the adversary knows everything).
	Inputs node.Inputs
}

// Writer returns the append capability of a Byzantine node. It panics when
// asked for a correct node's writer — the adversary controls only its own
// registers.
func (e *Env) Writer(id appendmem.NodeID) *appendmem.Writer {
	if !e.Roster.IsByzantine(id) {
		panic("agreement: adversary requested an honest writer")
	}
	return e.Mem.Writer(id)
}

// Adversary drives the Byzantine nodes. OnGrant is invoked whenever the
// authority grants access to a Byzantine node; the adversary may use the
// grant, bank it, or waste it.
type Adversary interface {
	Init(env *Env)
	OnGrant(g access.Grant)
}

// Silent is the adversary that never appends (Byzantine nodes crash-mute).
type Silent struct{}

// Init implements Adversary.
func (Silent) Init(*Env) {}

// OnGrant implements Adversary.
func (Silent) OnGrant(access.Grant) {}

// ValueFlip is the generic adversary of the validity analyses: Byzantine
// nodes follow the honest structure rule — but always vote the opposite of
// the correct nodes' common input, and with a perfectly fresh view (no
// staleness handicap).
type ValueFlip struct {
	Rule  HonestRule
	Value int64      // the vote to cast; 0 means -1
	rule  HonestRule // per-run instance (fresh caches), set by Init
	env   *Env
}

// Init implements Adversary.
func (a *ValueFlip) Init(env *Env) {
	a.env = env
	// The adversary reads fresh on every grant, so one per-run rule
	// instance sees monotonically growing views and can reuse its index.
	a.rule = nodeRule(a.Rule)
	if a.Value == 0 {
		a.Value = -1
	}
}

// OnGrant implements Adversary.
func (a *ValueFlip) OnGrant(g access.Grant) {
	a.rule.Append(a.env.Mem.Read(), a.env.Writer(g.Node), a.Value, a.env.Rng)
}

// Result collects everything an experiment wants from one run.
type Result struct {
	Cfg     RandomizedConfig // the filled configuration the run used
	Roster  node.Roster
	Inputs  node.Inputs
	Outcome *node.Outcome
	Verdict node.Verdict

	Grants         int // tokens issued
	TotalAppends   int
	CorrectAppends int
	ByzAppends     int

	// DecideTime[i] is when node i decided (correct nodes only; zero when
	// undecided).
	DecideTime []sim.Time
	// DecideViewSize[i] is the size of the view node i decided on; with
	// Memory.ViewAt it reconstructs each node's exact decision view for
	// post-hoc analysis (e.g. the backbone common-prefix property).
	DecideViewSize []int
	// FinalView is the memory at the end of the run, for structure
	// analysis by experiments.
	FinalView appendmem.View
	// Mem is the underlying memory; combined with DecideViewSize it
	// reconstructs per-node decision views via Mem.ViewAt.
	Mem *appendmem.Memory
	// Duration is the virtual time when the run ended.
	Duration sim.Time
	// VisMeanLag is the mean propagation lag of appends over the
	// topology (0 under the default uniform-Δ visibility).
	VisMeanLag float64
	// MemHighWater is the peak number of live (unretired) messages over
	// the run — equal to TotalAppends for an unbounded memory, bounded
	// near Cfg.Window in windowed mode.
	MemHighWater int
}

// RunRandomized executes one protocol run and returns its Result.
func RunRandomized(cfg RandomizedConfig, rule HonestRule, adv Adversary) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed, 0xA11CE)
	rngAuthority := root.Split()
	rngAdv := root.Split()
	scratch := scratchPool.Get()
	defer scratch.release()
	nodeRngs := runner.Resize(scratch.rngs, cfg.N)
	scratch.rngs = nodeRngs
	for i := range nodeRngs {
		nodeRngs[i] = root.Split()
	}
	// The visibility rng split is gated on Topology so the default path
	// consumes root in exactly the historical order — goldens depend on it.
	var rngVis *xrand.PCG
	if cfg.Topology != nil {
		rngVis = root.Split()
	}
	// Resuming: every rng stream restarts at the exact draw it had reached
	// at capture; root's own draws (crash times, read phases) are replaced
	// by the captured values below.
	resume := cfg.ResumeFrom
	if resume != nil {
		rngAuthority = xrand.Restore(resume.AuthorityRng)
		rngAdv = xrand.Restore(resume.AdversaryRng)
		for i := range nodeRngs {
			nodeRngs[i] = xrand.Restore(resume.NodeRngs[i])
		}
	}

	s := scratch.sim
	var mem *appendmem.Memory
	switch {
	case resume != nil:
		mem = resume.Mem.Clone()
		s.StartAt(resume.Now)
	case cfg.Window > 0:
		mem = appendmem.NewBounded(cfg.N, windowChunk(cfg.Window))
	default:
		mem = appendmem.New(cfg.N)
	}
	roster := node.NewRoster(cfg.N, cfg.T).WithCrashes(cfg.Crashes)
	outcome := node.NewOutcome(cfg.N)
	result := &Result{
		Cfg:            cfg,
		Roster:         roster,
		Inputs:         cfg.Inputs,
		Outcome:        outcome,
		DecideTime:     make([]sim.Time, cfg.N),
		DecideViewSize: make([]int, cfg.N),
	}

	// Expected run duration: K appends at aggregate rate Nλ/Δ, doubled for
	// slack; used only to place crash times.
	expDuration := sim.Time(2 * float64(cfg.K) * cfg.Delta / (cfg.Lambda * float64(cfg.N)))
	crashAt := runner.Resize(scratch.crashAt, cfg.N)
	scratch.crashAt = crashAt
	for i := range crashAt {
		crashAt[i] = sim.Time(math.Inf(1))
		if roster.Role(appendmem.NodeID(i)) == node.Crash {
			crashAt[i] = sim.Time(root.Float64()) * expDuration
		}
	}
	if resume != nil {
		copy(crashAt, resume.CrashAt)
	}
	alive := func(id appendmem.NodeID) bool { return s.Now() < crashAt[id] }

	lastView := runner.Resize(scratch.lastView, cfg.N)
	scratch.lastView = lastView
	for i := range lastView {
		lastView[i] = mem.ViewAt(0)
		if resume != nil {
			lastView[i] = mem.ViewAt(resume.ViewSizes[i])
		}
	}

	// Topology-aware visibility: honest reads become per-node arrival
	// prefixes; syncVis floods newly landed appends after every append
	// site. Both stay nil/no-op on the default path.
	var vis *access.Visibility
	if cfg.Topology != nil {
		vis = access.NewVisibility(s, rngVis, cfg.Topology, cfg.TopologyDelay, mem)
	}
	syncVis := func() {
		if vis != nil {
			vis.Sync()
		}
	}
	readView := func(id appendmem.NodeID) appendmem.View {
		if vis != nil {
			return vis.ViewFor(id)
		}
		return mem.Read()
	}

	// Per-node rule instances: a correct node's views grow monotonically
	// over the run, so a rule with per-node state extends its indexes
	// instead of rebuilding per step. When every node reads the whole
	// memory, their views also form one stream, and a rule with per-trial
	// state shares one index across all of them.
	trialRule, shared := rule, false
	if pt, ok := rule.(PerTrialState); ok && vis == nil {
		trialRule, shared = pt.NewTrialRule(), true
	}
	nodeRules := runner.Resize(scratch.rules, cfg.N)
	scratch.rules = nodeRules
	for i := range nodeRules {
		if !roster.IsByzantine(appendmem.NodeID(i)) {
			nodeRules[i] = nodeRule(trialRule)
		}
	}

	// Windowed mode: every party that can still append must expose a
	// reachability floor, or no retirement bound exists.
	var winRules []WindowedRule
	var winTrial WindowedRule
	var winAdv WindowedAdversary
	if cfg.Window > 0 {
		if shared {
			winTrial, _ = trialRule.(WindowedRule)
		}
		winRules = make([]WindowedRule, cfg.N)
		for i, r := range nodeRules {
			if r == nil {
				continue
			}
			wr, ok := r.(WindowedRule)
			if !ok {
				return nil, fmt.Errorf("agreement: window requires a rule with reachability floors; %T has none", rule)
			}
			winRules[i] = wr
		}
		if cfg.T > 0 {
			wa, ok := adv.(WindowedAdversary)
			if !ok {
				return nil, fmt.Errorf("agreement: window requires an adversary with reachability floors; %T has none", adv)
			}
			winAdv = wa
		}
	}
	if resume != nil {
		result.Grants = resume.Grants
	}

	// Only non-crash correct nodes are expected to decide; crash nodes may
	// stop at any time and are excluded from the consensus properties.
	undecided := len(roster.Correct())
	done := false
	finish := func() {
		if !done {
			done = true
			s.Stop()
		}
	}
	// Hard horizon: even a silent adversary with crashed correct nodes must
	// not spin the run forever.
	s.At(64*expDuration+sim.Time(64*cfg.Delta), finish)

	env := &Env{Sim: s, Mem: mem, Roster: roster, Cfg: cfg, Rng: rngAdv, Inputs: cfg.Inputs}
	adv.Init(env)

	// Windowed retirement: every Δ, take the minimum reachability floor
	// over the trial-shared state and the parties that can still append
	// (decided and dead nodes never append again), keep at least Window
	// messages live, compact every index to the watermark — the shared one
	// once — and retire the memory below it. Consumes no randomness and
	// registers no events unless Window > 0, so the default path is
	// untouched.
	if cfg.Window > 0 {
		var retire func()
		retire = func() {
			if done {
				return
			}
			if keep := mem.Len() - cfg.Window; keep > mem.Watermark() {
				f := mem.Len()
				if winTrial != nil {
					f = min(f, winTrial.ViewFloor())
				}
				for i, wr := range winRules {
					id := appendmem.NodeID(i)
					if wr != nil && alive(id) && !outcome.Decided[id] {
						f = min(f, wr.ViewFloor())
					}
				}
				if winAdv != nil {
					f = min(f, winAdv.ViewFloor())
				}
				if w := min(keep, parentFloor(mem, f)); w > mem.Watermark() {
					if winTrial != nil {
						winTrial.CompactTo(w)
					}
					for _, wr := range winRules {
						if wr != nil {
							wr.CompactTo(w)
						}
					}
					if winAdv != nil {
						winAdv.CompactTo(w)
					}
					mem.Retire(w)
				}
			}
			s.After(sim.Time(cfg.Delta), retire)
		}
		s.After(sim.Time(cfg.Delta), retire)
	}

	// Temporal-asynchrony injection (§5.3 discussion): honest view
	// refreshes blackout for StallFor·Δ once the memory reaches
	// StallAtSize.
	stallUntil := sim.Time(-1)
	stallFired := false
	maybeStall := func() {
		if cfg.StallAtSize > 0 && !stallFired && mem.Len() >= cfg.StallAtSize {
			stallFired = true
			stallUntil = s.Now() + sim.Time(cfg.StallFor*cfg.Delta)
			cfg.Trace.Record(trace.Event{At: s.Now(), Kind: trace.StallStart, Node: trace.System,
				Note: fmt.Sprintf("honest views blacked out until %.3f", float64(stallUntil))})
			s.At(stallUntil, func() {
				cfg.Trace.Record(trace.Event{At: s.Now(), Kind: trace.StallEnd, Node: trace.System})
			})
		}
	}

	// Crash events for the trace.
	if cfg.Trace.Enabled() {
		for i := range crashAt {
			if roster.Role(appendmem.NodeID(i)) == node.Crash {
				id := appendmem.NodeID(i)
				s.At(crashAt[i], func() {
					cfg.Trace.Record(trace.Event{At: s.Now(), Kind: trace.Crash, Node: id})
				})
			}
		}
	}
	recordAppends := func(before int, note string) {
		if !cfg.Trace.Enabled() {
			return
		}
		for l := before; l < mem.Len(); l++ {
			msg := mem.Message(appendmem.MsgID(l))
			cfg.Trace.Record(trace.Event{At: s.Now(), Kind: trace.Append, Node: msg.Author,
				Msg: msg.ID, Val: msg.Value, Note: note})
		}
	}

	onGrant := func(g access.Grant) {
		if done {
			return
		}
		result.Grants++
		id := g.Node
		cfg.Trace.Record(trace.Event{At: s.Now(), Kind: trace.Grant, Node: id})
		before := mem.Len()
		switch {
		case roster.IsByzantine(id):
			adv.OnGrant(g)
			recordAppends(before, "byzantine")
		case alive(id):
			if !outcome.Decided[id] { // Algorithm 5/6: stop appending after deciding
				view := lastView[id]
				if cfg.FreshHonestReads {
					view = readView(id)
				}
				if cfg.AsyncDelayMax > 0 {
					// Asynchronous node: the append lands after an
					// arbitrary delay, committed to the view held at
					// token receipt.
					delay := sim.Time(nodeRngs[id].Float64() * cfg.AsyncDelayMax * cfg.Delta)
					s.After(delay, func() {
						if done || !alive(id) {
							return
						}
						b := mem.Len()
						nodeRules[id].Append(view, mem.Writer(id), cfg.Inputs[id], nodeRngs[id])
						recordAppends(b, "delayed")
						syncVis()
						maybeStall()
						if mem.Len() >= cfg.MaxAppends {
							finish()
						}
					})
				} else {
					nodeRules[id].Append(view, mem.Writer(id), cfg.Inputs[id], nodeRngs[id])
					recordAppends(before, "")
				}
			}
		}
		syncVis()
		maybeStall()
		if mem.Len() >= cfg.MaxAppends {
			finish()
		}
	}
	type authorityIface interface {
		Start()
		Stop()
		Issued() int
		NextAt() sim.Time
		ResumeAt(seq int, at sim.Time)
	}
	var authority authorityIface
	switch {
	case cfg.Rates != nil:
		authority = access.NewWeightedPoissonAuthority(s, rngAuthority, cfg.Rates, cfg.Delta, onGrant)
	case cfg.RoundRobinAccess:
		authority = access.NewRoundRobinAuthority(s, cfg.N, cfg.Lambda, cfg.Delta, onGrant)
	default:
		authority = access.NewPoissonAuthority(s, rngAuthority, cfg.N, cfg.Lambda, cfg.Delta, onGrant)
	}

	// Checkpoint capture, armed until the first decision. The snapshot is
	// taken inside the deciding node's read event but represents the state
	// just before it fired: the node's rng is captured pre-Decide (the
	// resumed run replays the event, re-consuming those draws), its
	// pending read is still at the event's own instant, and no decision
	// has been recorded anywhere.
	armCheckpoint := cfg.CheckpointSink != nil
	capture := func(id appendmem.NodeID, pre xrand.State) *Checkpoint {
		cp := &Checkpoint{
			Mem:          mem.Clone(),
			Now:          s.Now(),
			Grants:       result.Grants,
			AuthoritySeq: authority.Issued(),
			AuthorityAt:  authority.NextAt(),
			AuthorityRng: rngAuthority.State(),
			AdversaryRng: rngAdv.State(),
			NodeRngs:     make([]xrand.State, cfg.N),
			CrashAt:      append([]sim.Time(nil), crashAt...),
			ReadAt:       append([]sim.Time(nil), scratch.readAt...),
			ViewSizes:    make([]int, cfg.N),
		}
		for i := range nodeRngs {
			cp.NodeRngs[i] = nodeRngs[i].State()
		}
		cp.NodeRngs[id] = pre
		for i := range lastView {
			cp.ViewSizes[i] = lastView[i].Size()
		}
		return cp
	}

	// Per-node read schedule: refresh view and attempt decision every Δ at
	// a fixed per-node phase. Each node gets ONE closure for the whole run;
	// rescheduling re-queues that same func value, so the steady state of
	// the read loop allocates nothing.
	readAt := runner.Resize(scratch.readAt, cfg.N)
	scratch.readAt = readAt
	readFns := runner.Resize(scratch.readFns, cfg.N)
	scratch.readFns = readFns
	for i := 0; i < cfg.N; i++ {
		id := appendmem.NodeID(i)
		if roster.IsByzantine(id) {
			continue
		}
		readFns[id] = func() {
			if done || !alive(id) || roster.IsByzantine(id) {
				return
			}
			if s.Now() < stallUntil {
				// Blacked out: no refresh, no decision; try again later.
				readAt[id] += sim.Time(cfg.Delta)
				s.At(readAt[id], readFns[id])
				return
			}
			lastView[id] = readView(id)
			cfg.Trace.Record(trace.Event{At: s.Now(), Kind: trace.Read, Node: id})
			if !outcome.Decided[id] {
				var preDecide xrand.State
				if armCheckpoint {
					preDecide = nodeRngs[id].State()
				}
				if v, ok := nodeRules[id].Decide(lastView[id], cfg.K, nodeRngs[id]); ok {
					if armCheckpoint {
						armCheckpoint = false
						cfg.CheckpointSink(capture(id, preDecide))
					}
					outcome.Decide(id, v)
					result.DecideTime[id] = s.Now()
					result.DecideViewSize[id] = lastView[id].Size()
					cfg.Trace.Record(trace.Event{At: s.Now(), Kind: trace.Decide, Node: id, Val: v})
					if roster.IsCorrect(id) {
						undecided--
						if undecided == 0 {
							finish()
							return
						}
					}
				}
			}
			readAt[id] += sim.Time(cfg.Delta)
			s.At(readAt[id], readFns[id])
		}
	}
	for i := 0; i < cfg.N; i++ {
		id := appendmem.NodeID(i)
		if roster.IsByzantine(id) {
			continue
		}
		if resume != nil {
			// Re-register each node's pending read at its captured instant.
			// A node that crashed before the capture had already dropped
			// out of the read loop; leave it out.
			if !alive(id) {
				continue
			}
			readAt[id] = resume.ReadAt[id]
		} else {
			readAt[id] = sim.Time(root.Float64() * cfg.Delta)
		}
		s.At(readAt[id], readFns[id])
	}

	if resume != nil {
		authority.ResumeAt(resume.AuthoritySeq, resume.AuthorityAt)
	} else {
		authority.Start()
	}
	s.Run()
	authority.Stop()

	result.FinalView = mem.Read()
	result.Mem = mem
	result.Duration = s.Now()
	result.TotalAppends = mem.Len()
	result.MemHighWater = mem.LiveHighWater()
	// Per-author counts come from the register lengths — identical to
	// scanning the messages, but valid over a windowed memory too.
	for i := 0; i < cfg.N; i++ {
		id := appendmem.NodeID(i)
		if roster.IsByzantine(id) {
			result.ByzAppends += mem.RegisterLen(id)
		} else {
			result.CorrectAppends += mem.RegisterLen(id)
		}
	}
	if vis != nil {
		result.VisMeanLag = vis.MeanLag()
	}
	result.Verdict = node.Evaluate(roster, cfg.Inputs, outcome)
	return result, nil
}

// MustRun is RunRandomized but panics on configuration errors; for
// experiment code with vetted configs.
func MustRun(cfg RandomizedConfig, rule HonestRule, adv Adversary) *Result {
	r, err := RunRandomized(cfg, rule, adv)
	if err != nil {
		panic(err)
	}
	return r
}
