package adversary

import (
	"testing"

	"repro/internal/access"
	"repro/internal/agreement"
	"repro/internal/agreement/dagba"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/node"
	"repro/internal/xrand"
)

// The tests below keep the names of the strategies the presets were
// first written as (ChainForker = Fork, ChainTieBreaker = TieBreak,
// DagChainExtender = PrivateChain, DagLastMinute = LastMinute,
// DagPrivateFork = PrivateFork, Equivocator = Equivocate).

// testEnv builds a bare environment: n nodes, last t Byzantine.
func testEnv(n, t int) *agreement.Env {
	return &agreement.Env{
		Mem:    appendmem.New(n),
		Roster: node.NewRoster(n, t),
		Rng:    xrand.New(1, 1),
	}
}

func grantFor(id appendmem.NodeID) access.Grant {
	return access.Grant{Node: id}
}

func TestChainForkerEmptyMemory(t *testing.T) {
	env := testEnv(4, 1)
	a := &ChainAttack{P: Fork}
	a.Init(env)
	a.OnGrant(grantFor(3))
	if env.Mem.Len() != 1 {
		t.Fatal("no append")
	}
	msg := env.Mem.Message(0)
	if msg.Value != -1 || msg.Parents[0] != appendmem.None {
		t.Fatalf("msg = %+v", msg)
	}
}

func TestChainForkerForksCorrectTip(t *testing.T) {
	env := testEnv(4, 1)
	g := env.Mem.Writer(0).MustAppend(+1, 0, []appendmem.MsgID{appendmem.None})
	tip := env.Mem.Writer(1).MustAppend(+1, 0, []appendmem.MsgID{g.ID})
	a := &ChainAttack{P: Fork}
	a.Init(env)
	a.OnGrant(grantFor(3))
	forked := env.Mem.Message(2)
	// Sibling of the correct tip: same parent, same depth.
	if forked.Parents[0] != chain.Parent(env.Mem.Message(tip.ID)) {
		t.Fatalf("forked parent = %d, want %d", forked.Parents[0], g.ID)
	}
	tree := chain.Build(env.Mem.Read())
	tips := tree.LongestTips()
	if len(tips) != 2 {
		t.Fatalf("fork did not create a tie: tips = %v", tips)
	}
}

func TestChainForkerExtendsOwnTip(t *testing.T) {
	// When every longest tip is Byzantine, extend instead of self-forking.
	env := testEnv(4, 2)
	byzTip := env.Mem.Writer(3).MustAppend(-1, 0, []appendmem.MsgID{appendmem.None})
	a := &ChainAttack{P: Fork}
	a.Init(env)
	a.OnGrant(grantFor(2))
	got := env.Mem.Message(1)
	if got.Parents[0] != byzTip.ID {
		t.Fatalf("parent = %d, want extension of %d", got.Parents[0], byzTip.ID)
	}
}

func TestChainTieBreakerExtendsFreshTip(t *testing.T) {
	env := testEnv(4, 1)
	g := env.Mem.Writer(0).MustAppend(+1, 0, []appendmem.MsgID{appendmem.None})
	tip := env.Mem.Writer(1).MustAppend(+1, 0, []appendmem.MsgID{g.ID})
	a := &ChainAttack{P: TieBreak}
	a.Init(env)
	a.OnGrant(grantFor(3))
	got := env.Mem.Message(2)
	if got.Parents[0] != tip.ID {
		t.Fatalf("parent = %d, want fresh tip %d", got.Parents[0], tip.ID)
	}
	if got.Value != -1 {
		t.Fatalf("value = %d", got.Value)
	}
}

func TestChainTieBreakerEmptyMemory(t *testing.T) {
	env := testEnv(3, 1)
	a := &ChainAttack{P: TieBreak}
	a.Init(env)
	a.OnGrant(grantFor(2))
	if env.Mem.Len() != 1 || env.Mem.Message(0).Parents[0] != appendmem.None {
		t.Fatal("empty-memory append malformed")
	}
}

func TestDagChainExtenderSingleParent(t *testing.T) {
	env := testEnv(4, 1)
	g := env.Mem.Writer(0).MustAppend(+1, 0, nil)
	env.Mem.Writer(1).MustAppend(+1, 0, []appendmem.MsgID{g.ID})
	a := &DagAttack{P: PrivateChain, Pivot: dagba.Ghost}
	a.Init(env)
	a.OnGrant(grantFor(3))
	msg := env.Mem.Message(2)
	if len(msg.Parents) != 1 {
		t.Fatalf("private block references %d parents, want 1", len(msg.Parents))
	}
	// Two consecutive grants build a chain.
	a.OnGrant(grantFor(3))
	next := env.Mem.Message(3)
	if next.Parents[0] != msg.ID {
		t.Fatalf("second private block extends %d, want %d", next.Parents[0], msg.ID)
	}
}

func TestDagChainExtenderEmptyMemory(t *testing.T) {
	env := testEnv(3, 1)
	a := &DagAttack{P: PrivateChain, Pivot: dagba.Longest}
	a.Init(env)
	a.OnGrant(grantFor(2))
	if env.Mem.Len() != 1 {
		t.Fatal("no append on empty memory")
	}
}

func TestEquivocatorAlternates(t *testing.T) {
	env := testEnv(4, 1)
	g := env.Mem.Writer(0).MustAppend(+1, 0, []appendmem.MsgID{appendmem.None})
	env.Mem.Writer(1).MustAppend(+1, 0, []appendmem.MsgID{g.ID})
	a := &ChainAttack{P: Equivocate}
	a.Init(env)
	a.OnGrant(grantFor(3)) // fork
	a.OnGrant(grantFor(3)) // extend
	first, second := env.Mem.Message(2), env.Mem.Message(3)
	if first.Parents[0] == second.Parents[0] {
		t.Fatal("equivocator did not alternate targets")
	}
}

func TestAdversariesOnlyUseOwnWriters(t *testing.T) {
	// Granting an adversary an honest node's id must panic via Env.Writer.
	env := testEnv(4, 1)
	var advs []agreement.Adversary
	for _, p := range []Params{Fork, TieBreak, Equivocate} {
		advs = append(advs, &ChainAttack{P: p})
	}
	for _, p := range []Params{PrivateChain, LastMinute, PrivateFork} {
		advs = append(advs, &DagAttack{P: p, Pivot: dagba.Ghost})
	}
	for _, adv := range advs {
		adv.Init(env)
		func() {
			defer func() {
				if r := recover(); r != "agreement: adversary requested an honest writer" {
					t.Errorf("%T %+v: recovered %v, want the honest-writer panic", adv, adv, r)
				}
			}()
			adv.OnGrant(grantFor(0)) // node 0 is honest
		}()
	}
}

func TestDagLastMinuteStaysSilentEarly(t *testing.T) {
	env := testEnv(4, 1)
	env.Cfg.K = 41
	env.Mem.Writer(0).MustAppend(+1, 0, nil)
	a := &DagAttack{P: LastMinute, Pivot: dagba.Ghost}
	a.Init(env)
	a.OnGrant(grantFor(3))
	if env.Mem.Len() != 1 {
		t.Fatal("last-minute adversary appended before the trigger")
	}
}

func TestDagLastMinuteBurstsNearK(t *testing.T) {
	env := testEnv(4, 1)
	env.Cfg.K = 5
	parent := appendmem.None
	for i := 0; i < 4; i++ { // ordering length 4 >= K - StartWithin(2): trigger immediately
		msg := env.Mem.Writer(0).MustAppend(+1, 0, []appendmem.MsgID{parent})
		parent = msg.ID
	}
	p := LastMinute
	p.StartWithin = 2
	a := &DagAttack{P: p, Pivot: dagba.Ghost}
	a.Init(env)
	a.OnGrant(grantFor(3))
	if env.Mem.Len() != 5 {
		t.Fatal("last-minute adversary did not fire near k")
	}
	msg := env.Mem.Message(4)
	if len(msg.Parents) != 1 || msg.Value != -1 {
		t.Fatalf("burst block malformed: %+v", msg)
	}
}

func TestDagPrivateForkNeverReferencesHonest(t *testing.T) {
	env := testEnv(4, 1)
	env.Mem.Writer(0).MustAppend(+1, 0, nil)
	a := &DagAttack{P: PrivateFork}
	a.Init(env)
	a.OnGrant(grantFor(3))
	a.OnGrant(grantFor(3))
	first, second := env.Mem.Message(1), env.Mem.Message(2)
	if len(first.Parents) != 0 {
		t.Fatalf("fork root has parents: %v", first.Parents)
	}
	if len(second.Parents) != 1 || second.Parents[0] != first.ID {
		t.Fatalf("fork not chained: %+v", second)
	}
}
