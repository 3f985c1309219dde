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

	"repro/internal/access"
	"repro/internal/appendmem"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/xrand"
)

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

// PerNodeState is optionally implemented by HonestRules that keep per-node
// incremental state: the memoized parents of the node's next append and
// the indexes its own views need. RunRandomized calls NewNodeRule once per
// correct node of a rule that is no Recycler, and drives that node
// exclusively through the returned instance; a rule with neither is
// shared, stateless, across all nodes. The returned rule must decide and
// append exactly like the original: per-node state is a performance
// vehicle, never a behavioural one.
type PerNodeState interface {
	NewNodeRule() HonestRule
}

// Recycler is optionally implemented by HonestRules whose correct nodes
// can share one substrate index per trial and whose instances own storage
// worth keeping across trials: indexes and their buffers (see Split).
// When every correct node reads the whole memory (mem.Read(), every timing
// model except topology visibility), the views the nodes decide on form
// one monotone stream, so a single index extended by all of them answers
// every node. RunRandomized then makes one trial instance with
// NewTrialRuleFrom and splits it per node with its NewNodeRuleFrom; with
// topology visibility (per-node arrival prefixes) it skips the trial step
// and splits the rule itself. Every instance must decide and append
// exactly like the original. A trial instance that implements
// WindowedRule bounds the shared state, and windowed retirement compacts
// that state once.
//
// The harness pools its trial slots, and a slot keeps the instances its
// last trial made. When that trial ends the slot calls Release on each,
// which must drop every reference into the trial and keep only capacity.
// The slot's next trial then hands each released instance, as spare, to
// one NewTrialRuleFrom or NewNodeRuleFrom, which build the instance on
// spare's storage; a spare they cannot use (nil, another kind's) is
// ignored. Spare is not used again either way.
//
// A node's private decision index (no trial step: topology visibility)
// is better made fresh per trial than recycled. The pool makes its slots
// on demand, and a new slot's first trials would regrow every node's
// private index from empty: a one-off cost per slot, about 2% of
// perfbench's chain-topology sweep, that lands in whichever sweep first
// needs the slot, so allocation per sweep would no longer repeat.
type Recycler interface {
	Release()
	NewTrialRuleFrom(spare HonestRule) HonestRule
	NewNodeRuleFrom(spare HonestRule) HonestRule
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

// RunRandomized executes one protocol run and returns its Result. The
// run's stages are picked once from the config before anything is
// scheduled (see trial).
func RunRandomized(cfg RandomizedConfig, rule HonestRule, adv Adversary) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	t := trialPool.Get()
	defer trialPool.Put(t)
	return t.run(cfg, rule, adv)
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
