package agreement

import (
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/appendmem"
	"repro/internal/node"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// viewSource is where correct nodes read: the whole memory (memViews, the
// Δ-bounded oracle) or their arrival prefixes over a topology
// (*access.Visibility, whose Sync floods the appends since its last call).
type viewSource interface {
	ViewFor(id appendmem.NodeID) appendmem.View
	Sync()
	MeanLag() float64
}

type memViews struct{ mem *appendmem.Memory }

func (v memViews) ViewFor(appendmem.NodeID) appendmem.View { return v.mem.Read() }
func (memViews) Sync()                                     {}
func (memViews) MeanLag() float64                          { return 0 }

// trial is one run of the harness. Its stages — view source, authority,
// honest append path and the optional modes — are picked once, before
// anything is scheduled, so no event handler branches on a mode. Trials
// are pooled in a runner.Pool, whose slots survive GC cycles: a slot keeps
// its simulator's event-heap capacity, its slices' capacity, the event
// handlers bound to it (grant, finish, retire, one read per node), its
// topology visibility tracker and the released rule instances of its last
// trial (see Recycler), whose indexes keep their capacity. Nothing
// pooled escapes into the Result; the Memory, which does, is never pooled.
type trial struct {
	cfg     RandomizedConfig
	sim     *sim.Sim
	mem     *appendmem.Memory
	roster  node.Roster
	outcome *node.Outcome
	result  *Result
	adv     Adversary
	views   viewSource
	vis     *access.Visibility // pooled topology view source
	auth    access.Authority

	rngAuth, rngAdv *xrand.PCG
	rngs            []*xrand.PCG
	trialRule       HonestRule // the rule's trial instance; nil when not split per trial
	rules           []HonestRule
	// recycles reports that rules holds node instances a Recycler made,
	// which alone go back to the spares: instances a plain NewNodeRule
	// made are not drawn from them, and returning those would grow the
	// spares by a trial's worth each time.
	recycles        bool
	lastView        []appendmem.View
	crashAt, readAt []sim.Time

	grantFn            func(access.Grant)
	finishFn, retireFn func()
	readFns            []func()

	appendHonest func(id appendmem.NodeID, view appendmem.View)
	afterAppend  []func(before int, note string)
	firstDecide  func(id appendmem.NodeID, pre xrand.State)

	winTrial WindowedRule
	winRules []WindowedRule
	winAdv   WindowedAdversary

	expDuration sim.Time
	undecided   int
	done        bool
	stallUntil  sim.Time

	// Released rule instances of the slot's last trials, for the next
	// split (see Recycler): at most one trial instance and one per node.
	spareTrial HonestRule
	spareNodes []HonestRule
}

var trialPool = runner.NewPool(newTrial)

func newTrial() *trial {
	t := &trial{sim: sim.New()}
	t.grantFn, t.finishFn, t.retireFn = t.grant, t.finish, t.retire
	return t
}

// run executes one filled-config run on the slot and leaves the slot
// released for the next.
func (t *trial) run(cfg RandomizedConfig, rule HonestRule, adv Adversary) (*Result, error) {
	defer t.release()
	if err := t.setup(cfg, rule, adv); err != nil {
		return nil, err
	}
	t.schedule()
	t.sim.Run()
	t.auth.Stop()
	return t.collect(), nil
}

// release drops every reference into the run, keeping capacity and the
// released rule instances.
func (t *trial) release() {
	t.sim.Reset()
	if t.vis != nil {
		t.vis.Release()
	}
	if rc, ok := t.trialRule.(Recycler); ok {
		rc.Release()
		t.spareTrial = t.trialRule
	}
	for _, r := range t.rules {
		if rc, ok := r.(Recycler); ok && t.recycles {
			rc.Release()
			t.spareNodes = append(t.spareNodes, r)
		}
	}
	clear(t.rngs)
	clear(t.rules)
	clear(t.lastView)
	clear(t.winRules)
	clear(t.afterAppend)
	*t = trial{
		sim: t.sim, rngs: t.rngs, rules: t.rules, lastView: t.lastView,
		crashAt: t.crashAt, readAt: t.readAt, winRules: t.winRules,
		grantFn: t.grantFn, finishFn: t.finishFn, retireFn: t.retireFn,
		readFns: t.readFns, afterAppend: t.afterAppend[:0], vis: t.vis,
		spareTrial: t.spareTrial, spareNodes: t.spareNodes,
	}
}

// nodeRule is the package's nodeRule, on one of the slot's spares when
// the rule recycles.
func (t *trial) nodeRule(rule HonestRule) HonestRule {
	rc, ok := rule.(Recycler)
	if !ok {
		return nodeRule(rule)
	}
	t.recycles = true
	var spare HonestRule
	if n := len(t.spareNodes); n > 0 {
		spare = t.spareNodes[n-1]
		t.spareNodes[n-1] = nil
		t.spareNodes = t.spareNodes[:n-1]
	}
	return rc.NewNodeRuleFrom(spare)
}

// setup prepares the run: it draws the randomness from the root stream in
// the historical order (authority, adversary, per-node and — with a
// topology only — visibility streams, then crash instants and read
// phases), fast-forwards to the checkpoint when resuming, and picks the
// stages.
func (t *trial) setup(cfg RandomizedConfig, rule HonestRule, adv Adversary) error {
	t.cfg, t.adv = cfg, adv
	root := xrand.New(cfg.Seed, 0xA11CE)
	t.rngAuth, t.rngAdv = root.Split(), root.Split()
	t.rngs = runner.Resize(t.rngs, cfg.N)
	for i := range t.rngs {
		t.rngs[i] = root.Split()
	}
	var rngVis *xrand.PCG
	if cfg.Topology != nil {
		rngVis = root.Split()
	}
	if cfg.Window > 0 {
		t.mem = appendmem.NewBounded(cfg.N, windowChunk(cfg.Window))
	} else {
		t.mem = appendmem.New(cfg.N)
	}
	t.roster = node.NewRoster(cfg.N, cfg.T).WithCrashes(cfg.Crashes)
	t.outcome = node.NewOutcome(cfg.N)
	t.result = &Result{
		Cfg: cfg, Roster: t.roster, Inputs: cfg.Inputs, Outcome: t.outcome,
		DecideTime: make([]sim.Time, cfg.N), DecideViewSize: make([]int, cfg.N),
	}
	// Expected run duration: K appends at aggregate rate Nλ/Δ, doubled for
	// slack; places the crash instants and the horizon.
	t.expDuration = sim.Time(2 * float64(cfg.K) * cfg.Delta / (cfg.Lambda * float64(cfg.N)))
	t.crashAt = runner.Resize(t.crashAt, cfg.N)
	for i := range t.crashAt {
		t.crashAt[i] = sim.Time(math.Inf(1))
		if t.roster.Role(appendmem.NodeID(i)) == node.Crash {
			t.crashAt[i] = sim.Time(root.Float64()) * t.expDuration
		}
	}
	t.readAt = runner.Resize(t.readAt, cfg.N)
	t.lastView = runner.Resize(t.lastView, cfg.N)
	for i := range t.readAt {
		t.lastView[i] = t.mem.ViewAt(0)
		if !t.roster.IsByzantine(appendmem.NodeID(i)) {
			t.readAt[i] = sim.Time(root.Float64() * cfg.Delta)
		}
	}
	switch {
	case cfg.Rates != nil:
		t.auth = access.NewWeightedPoissonAuthority(t.sim, t.rngAuth, cfg.Rates, cfg.Delta, t.grantFn)
	case cfg.RoundRobinAccess:
		t.auth = access.NewRoundRobinAuthority(t.sim, cfg.N, cfg.Lambda, cfg.Delta, t.grantFn)
	default:
		t.auth = access.NewPoissonAuthority(t.sim, t.rngAuth, cfg.N, cfg.Lambda, cfg.Delta, t.grantFn)
	}
	if cfg.ResumeFrom != nil {
		t.restore(cfg.ResumeFrom)
	}

	// A correct node's views grow monotonically, so a rule with per-node
	// state extends its indexes instead of rebuilding them; when every
	// node reads the whole memory their views also form one stream, and a
	// Recycler shares one index across all of them.
	t.views = memViews{t.mem}
	trialRule, shared := rule, false
	if cfg.Topology != nil {
		if t.vis == nil {
			t.vis = access.NewVisibility(t.sim, rngVis, cfg.Topology, cfg.TopologyDelay, t.mem)
		} else {
			t.vis.Reset(t.sim, rngVis, cfg.Topology, cfg.TopologyDelay, t.mem)
		}
		t.views = t.vis
	} else if rc, ok := rule.(Recycler); ok {
		trialRule, shared = rc.NewTrialRuleFrom(t.spareTrial), true
		t.trialRule, t.spareTrial = trialRule, nil
	}
	t.rules = runner.Resize(t.rules, cfg.N)
	for i := range t.rules {
		if !t.roster.IsByzantine(appendmem.NodeID(i)) {
			t.rules[i] = t.nodeRule(trialRule)
		}
	}
	if cfg.Window > 0 {
		if err := t.bindWindow(rule, trialRule, shared); err != nil {
			return err
		}
	}
	t.appendHonest = t.appendNow
	if cfg.AsyncDelayMax > 0 {
		t.appendHonest = t.appendLater
	}
	if cfg.Trace.Enabled() {
		t.afterAppend = append(t.afterAppend, t.traceAppends)
	}
	if cfg.StallAtSize > 0 {
		t.afterAppend = append(t.afterAppend, t.stall)
	}
	if cfg.CheckpointSink != nil {
		t.firstDecide = t.capture
	}
	for len(t.readFns) < cfg.N {
		id := appendmem.NodeID(len(t.readFns))
		t.readFns = append(t.readFns, func() { t.read(id) })
	}
	// Only non-crash correct nodes are expected to decide; crash nodes may
	// stop at any time and are excluded from the consensus properties.
	t.undecided = len(t.roster.Correct())
	t.stallUntil = -1
	return nil
}

// schedule registers the first events in the historical order — the
// horizon, the adversary's own, windowed retirement, traced crashes, each
// live correct node's first read — and starts the authority.
func (t *trial) schedule() {
	cfg := &t.cfg
	// Hard horizon: even a silent adversary with crashed correct nodes must
	// not spin the run forever.
	t.sim.At(64*t.expDuration+sim.Time(64*cfg.Delta), t.finishFn)
	t.adv.Init(&Env{Sim: t.sim, Mem: t.mem, Roster: t.roster, Cfg: *cfg, Rng: t.rngAdv, Inputs: cfg.Inputs})
	if cfg.Window > 0 {
		t.sim.After(sim.Time(cfg.Delta), t.retireFn)
	}
	if cfg.Trace.Enabled() {
		for i, at := range t.crashAt {
			if id := appendmem.NodeID(i); t.roster.Role(id) == node.Crash {
				t.sim.At(at, func() {
					cfg.Trace.Record(trace.Event{At: t.sim.Now(), Kind: trace.Crash, Node: id})
				})
			}
		}
	}
	// A node that crashed before a checkpoint's capture had already left
	// the read loop.
	for i, at := range t.readAt {
		if id := appendmem.NodeID(i); !t.roster.IsByzantine(id) && t.alive(id) {
			t.sim.At(at, t.readFns[i])
		}
	}
	t.auth.Start()
}

func (t *trial) alive(id appendmem.NodeID) bool { return t.sim.Now() < t.crashAt[id] }

func (t *trial) finish() {
	if !t.done {
		t.done = true
		t.sim.Stop()
	}
}

// grant hands one access token to its holder: the adversary for a
// Byzantine node, the honest append stage for a live correct node that has
// not decided yet (Algorithms 5/6 stop appending after deciding).
func (t *trial) grant(g access.Grant) {
	if t.done {
		return
	}
	t.result.Grants++
	t.cfg.Trace.Record(trace.Event{At: t.sim.Now(), Kind: trace.Grant, Node: g.Node})
	before, note := t.mem.Len(), ""
	switch id := g.Node; {
	case t.roster.IsByzantine(id):
		t.adv.OnGrant(g)
		note = "byzantine"
	case t.alive(id) && !t.outcome.Decided[id]:
		view := t.lastView[id]
		if t.cfg.FreshHonestReads {
			view = t.views.ViewFor(id)
		}
		t.appendHonest(id, view)
	}
	t.appended(before, note)
}

func (t *trial) appendNow(id appendmem.NodeID, view appendmem.View) {
	t.rules[id].Append(view, t.mem.Writer(id), t.cfg.Inputs[id], t.rngs[id])
}

// appendLater is the asynchronous node's append (Theorem 5.1): it lands
// after a delay uniform in (0, AsyncDelayMax·Δ], committed to the view
// the node held when the token arrived.
func (t *trial) appendLater(id appendmem.NodeID, view appendmem.View) {
	delay := sim.Time(t.rngs[id].Float64() * t.cfg.AsyncDelayMax * t.cfg.Delta)
	t.sim.After(delay, func() {
		if t.done || !t.alive(id) {
			return
		}
		before := t.mem.Len()
		t.appendNow(id, view)
		t.appended(before, "delayed")
	})
}

// appended is the one post-append step of every append site.
func (t *trial) appended(before int, note string) {
	t.views.Sync()
	for _, after := range t.afterAppend {
		after(before, note)
	}
	if t.mem.Len() >= t.cfg.MaxAppends {
		t.finish()
	}
}

func (t *trial) traceAppends(before int, note string) {
	for l := before; l < t.mem.Len(); l++ {
		msg := t.mem.Message(appendmem.MsgID(l))
		t.cfg.Trace.Record(trace.Event{At: t.sim.Now(), Kind: trace.Append, Node: msg.Author,
			Msg: msg.ID, Val: msg.Value, Note: note})
	}
}

// stall injects the temporal asynchrony of §5.3's discussion: once the
// memory reaches StallAtSize, honest view refreshes black out for
// StallFor·Δ.
func (t *trial) stall(int, string) {
	if t.stallUntil >= 0 || t.mem.Len() < t.cfg.StallAtSize {
		return
	}
	t.stallUntil = t.sim.Now() + sim.Time(t.cfg.StallFor*t.cfg.Delta)
	t.cfg.Trace.Record(trace.Event{At: t.sim.Now(), Kind: trace.StallStart, Node: trace.System,
		Note: fmt.Sprintf("honest views blacked out until %.3f", float64(t.stallUntil))})
	t.sim.At(t.stallUntil, func() {
		t.cfg.Trace.Record(trace.Event{At: t.sim.Now(), Kind: trace.StallEnd, Node: trace.System})
	})
}

// read is correct node id's event every Δ at its fixed phase: refresh the
// view and try to decide, unless a stall blacks honest views out. It
// re-queues the node's one handler, so the read loop allocates nothing.
func (t *trial) read(id appendmem.NodeID) {
	if t.done || !t.alive(id) {
		return
	}
	if t.sim.Now() >= t.stallUntil {
		t.lastView[id] = t.views.ViewFor(id)
		t.cfg.Trace.Record(trace.Event{At: t.sim.Now(), Kind: trace.Read, Node: id})
		if !t.outcome.Decided[id] && t.decide(id) {
			return
		}
	}
	t.readAt[id] += sim.Time(t.cfg.Delta)
	t.sim.At(t.readAt[id], t.readFns[id])
}

// decide runs node id's rule on its fresh view and reports whether a
// decision ended the run.
func (t *trial) decide(id appendmem.NodeID) bool {
	pre := t.rngs[id].State()
	v, ok := t.rules[id].Decide(t.lastView[id], t.cfg.K, t.rngs[id])
	if !ok {
		return false
	}
	if t.firstDecide != nil {
		t.firstDecide(id, pre)
		t.firstDecide = nil
	}
	t.outcome.Decide(id, v)
	t.result.DecideTime[id] = t.sim.Now()
	t.result.DecideViewSize[id] = t.lastView[id].Size()
	t.cfg.Trace.Record(trace.Event{At: t.sim.Now(), Kind: trace.Decide, Node: id, Val: v})
	if t.roster.IsCorrect(id) {
		t.undecided--
		if t.undecided == 0 {
			t.finish()
			return true
		}
	}
	return false
}

func (t *trial) collect() *Result {
	r := t.result
	r.FinalView = t.mem.Read()
	r.Mem = t.mem
	r.Duration = t.sim.Now()
	r.TotalAppends = t.mem.Len()
	r.MemHighWater = t.mem.LiveHighWater()
	// Per-author counts come from the register lengths — identical to
	// scanning the messages, but valid over a windowed memory too.
	for i := 0; i < t.cfg.N; i++ {
		id := appendmem.NodeID(i)
		if t.roster.IsByzantine(id) {
			r.ByzAppends += t.mem.RegisterLen(id)
		} else {
			r.CorrectAppends += t.mem.RegisterLen(id)
		}
	}
	r.VisMeanLag = t.views.MeanLag()
	r.Verdict = node.Evaluate(t.roster, t.cfg.Inputs, t.outcome)
	return r
}
