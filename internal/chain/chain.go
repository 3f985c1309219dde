// Package chain implements the blockchain structure of Section 5.2 on top
// of the append memory: every appended message designates exactly one
// parent (Parents[0], or appendmem.None for blocks attached to the virtual
// genesis), forming a tree; protocols follow a longest chain and break ties
// between equally long chains by a pluggable rule.
//
// The three tie-breaking rules mirror the paper's discussion:
//
//   - Deterministic "first" (Garay et al. [9]): the first of the longest
//     tips in memory-arrival order. In the append memory arrival order is
//     not observable by nodes, but since appends are instantly visible,
//     "first seen" coincides with arrival order for every node, so this is
//     the faithful simulation of the first-seen rule.
//   - Adversarial: the worst case over all deterministic rules, used by
//     Theorem 5.3 ("one can assume that all ties will be broken in favor of
//     the adversary"): whenever a Byzantine tip ties, it wins.
//   - Randomized (Ren [21]): a uniformly random longest tip.
//
// A Tree is a dense-slice index over a View's MsgID space (IDs are the
// contiguous 0..Size-1 arrival prefix of one append-only Memory, parents
// always precede children). Build constructs it from scratch in O(view);
// Extend ingests only the suffix appended since the previous view, keeping
// depth, height and the longest-tip set incrementally correct in O(1) per
// block — a consumer that re-reads a growing memory every step (see
// Cached) pays amortized O(1) per block instead of O(view) per step.
package chain

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/appendmem"
	"repro/internal/xrand"
)

// Tree indexes the parent structure of a view. Blocks whose parent is not
// visible in the view are "dangling" and excluded from depth computations;
// with the append memory this only happens for malformed (Byzantine)
// references, since parents must be appended before children. The
// parent-keyed children slices use index int(id)+1 so the virtual genesis
// (appendmem.None) occupies slot 0.
// Compact (the retirement companion of Extend) rebases every per-id slice
// on an origin `off`: ids below off are frozen — their chain values are
// retained in frozenVals but their structure is dropped, and any query
// for them panics, mirroring the append memory's watermark contract. The
// anchor block off-1 takes over the virtual-genesis slot 0 of the
// parent-keyed children slices.
type Tree struct {
	view  appendmem.View
	built int // number of view-prefix blocks ingested
	size  int // non-dangling blocks, including frozen ones

	off      int                 // first live id; per-id slices index id-off
	depth    []int32             // by id-off; genesis-adjacent = 1; 0 = dangling
	children [][]appendmem.MsgID // by parent id+1-off; slot 0 = genesis or anchor
	roots    []appendmem.MsgID   // live blocks with parent None

	// Structure caches, materialized by the first Compact and maintained
	// by extend from then on: a windowed memory may retire messages the
	// index still answers for, so a compacting tree must never re-read the
	// view. Until then the tree reads the view directly and the caches
	// cost nothing — the unbounded path carries no windowed overhead.
	tracking bool
	parent   []appendmem.MsgID // by id-off; chain parent
	value    []int64           // by id-off; block value
	height   int
	// levelTips is the arrival-ordered set of blocks at depth == height,
	// maintained on Extend so LongestTips is O(tips) instead of O(view).
	levelTips []appendmem.MsgID

	// Frozen-prefix state: the values of the chain genesis..anchor (oldest
	// first; the anchor's depth equals len(frozenVals)) and the count of
	// frozen non-dangling blocks that were not on that chain.
	frozenVals   []int64
	frozenWasted int

	// Epoch-stamped scratch for Forks and Compact: a slot is marked in the
	// current pass iff its stamp equals the current epoch.
	mark      []uint64
	markEpoch uint64
}

// Parent returns the chain parent of msg: Parents[0], or None when the
// block hangs off the genesis.
func Parent(msg *appendmem.Message) appendmem.MsgID {
	if len(msg.Parents) == 0 {
		return appendmem.None
	}
	return msg.Parents[0]
}

// Build indexes the chain structure of view from scratch.
func Build(view appendmem.View) *Tree {
	t := &Tree{
		view:     view,
		depth:    make([]int32, 0, view.Size()),
		children: make([][]appendmem.MsgID, 1, view.Size()+1),
	}
	t.extend(view.Size())
	return t
}

// Extend ingests the blocks appended between the Tree's current view and
// view, which must be a later read of the same memory (the Tree's view is
// a prefix of it). All queries afterwards answer for the extended view. It
// panics when view is not an extension.
func (t *Tree) Extend(view appendmem.View) {
	if !t.view.SubsetOf(view) {
		panic("chain: Extend with a view that does not extend the indexed one")
	}
	t.view = view
	t.extend(view.Size())
}

// extend ingests ids [t.built, size). MsgIDs are assigned in arrival order
// and parents always precede children, so one increasing-ID pass computes
// all depths.
func (t *Tree) extend(size int) {
	for id := appendmem.MsgID(t.built); int(id) < size; id++ {
		msg := t.view.Message(id)
		p := Parent(msg)
		idx := int(id) - t.off
		t.depth = append(t.depth, 0)
		if t.tracking {
			t.parent = append(t.parent, p)
			t.value = append(t.value, msg.Value)
		}
		t.children = append(t.children, nil)
		t.mark = append(t.mark, 0)
		switch {
		case p == appendmem.None:
			t.depth[idx] = 1
			t.roots = append(t.roots, id)
		default:
			var pd int32
			switch {
			case int(p) < t.off-1:
				continue // dangling: parent frozen away (malformed reference)
			case t.off > 0 && int(p) == t.off-1:
				pd = int32(len(t.frozenVals)) // extends the anchor directly
			default:
				// Parents precede children, so p is already indexed; read the
				// slice directly (t.built is only advanced after the batch).
				pd = t.depth[int(p)-t.off]
				if pd == 0 {
					continue // dangling: parent invisible or itself dangling
				}
			}
			t.depth[idx] = pd + 1
		}
		t.size++
		if ci := int(p) + 1 - t.off; ci >= 0 {
			t.children[ci] = append(t.children[ci], id)
		} // else: a fresh root after Compact — no genesis slot remains for it
		if int(t.depth[idx]) > t.height {
			t.height = int(t.depth[idx])
			t.levelTips = t.levelTips[:0]
		}
		if int(t.depth[idx]) == t.height {
			t.levelTips = append(t.levelTips, id)
		}
	}
	t.built = size
}

// View returns the view the tree was built from (the latest extension).
func (t *Tree) View() appendmem.View { return t.view }

// track materializes the parent/value caches from the view. Called by the
// first Compact, which always precedes any memory retirement (the harness
// compacts indexes before retiring chunks), so every built id is still
// readable here.
func (t *Tree) track() {
	if t.tracking {
		return
	}
	t.tracking = true
	t.parent = make([]appendmem.MsgID, 0, t.built)
	t.value = make([]int64, 0, t.built)
	for id := appendmem.MsgID(t.off); int(id) < t.built; id++ {
		msg := t.view.Message(id)
		t.parent = append(t.parent, Parent(msg))
		t.value = append(t.value, msg.Value)
	}
}

// parentOf returns the chain parent of a built block, from the cache when
// compaction is engaged and from the view otherwise.
func (t *Tree) parentOf(id appendmem.MsgID) appendmem.MsgID {
	if t.tracking {
		return t.parent[int(id)-t.off]
	}
	return Parent(t.view.Message(id))
}

// valueOf is parentOf's counterpart for the block value.
func (t *Tree) valueOf(id appendmem.MsgID) int64 {
	if t.tracking {
		return t.value[int(id)-t.off]
	}
	return t.view.Message(id).Value
}

// Compact retires the index prefix below reqW that the decision rules can
// no longer reach, and returns the watermark actually achieved (old one
// when nothing could be retired). It freezes an anchor block A — the
// deepest ancestor of the longest chains with id below both reqW and
// every longest tip, such that every live non-dangling block descends
// from A — records the chain values genesis..A in frozenVals (so
// PrefixValues and decisions stay exact), and drops the per-id slices
// below A+1 by shifting them down in place. MsgIDs strictly increase
// along chains, so an id-based cut at a chain anchor is reachability-
// exact: no tip walk, depth lookup or tie-break can reach below it.
//
// Compact is conservative: when no anchor below reqW can be proven
// unreachable it does nothing and returns the current watermark. The
// caller must guarantee that blocks ingested by later Extends reference
// parents at or above the returned watermark (the agreement harness
// enforces this by taking the minimum over all nodes' tip floors before
// retiring the memory).
func (t *Tree) Compact(reqW int) int {
	t.track()
	if reqW > t.built {
		reqW = t.built
	}
	if reqW <= t.off || t.height == 0 || len(t.levelTips) == 0 {
		return t.off
	}
	// The anchor must sit strictly below every longest tip.
	limit := reqW
	if int(t.levelTips[0]) < limit {
		limit = int(t.levelTips[0])
	}
	if limit <= t.off {
		return t.off
	}
	// Candidate: the deepest ancestor of the first longest tip below limit.
	// Any other longest tip's chain meets this chain at or below the
	// candidate (checked by the descendant pass below).
	cand := t.levelTips[0]
	for int(cand) >= limit {
		cand = t.parent[int(cand)-t.off]
		if cand == appendmem.None || int(cand) < t.off {
			return t.off // chain exits the live region before an eligible anchor
		}
	}
	// Every live non-dangling block above the candidate must descend from
	// it; one ascending-id pass inherits the mark from the parent.
	t.markEpoch++
	e := t.markEpoch
	t.mark[int(cand)-t.off] = e
	for id := cand + 1; int(id) < t.built; id++ {
		idx := int(id) - t.off
		if t.depth[idx] == 0 {
			continue // dangling blocks freeze away silently
		}
		p := t.parent[idx]
		if int(p) < int(cand) || t.mark[int(p)-t.off] != e {
			return t.off // a live fork still reaches below the candidate
		}
		t.mark[idx] = e
	}
	// Freeze: append the chain values old-anchor..cand to frozenVals and
	// count the frozen off-chain blocks.
	w := int(cand) + 1
	chainLen := 0
	for cur := cand; int(cur) >= t.off; cur = t.parent[int(cur)-t.off] {
		chainLen++
	}
	at := len(t.frozenVals)
	t.frozenVals = append(t.frozenVals, make([]int64, chainLen)...)
	for cur, i := cand, at+chainLen-1; int(cur) >= t.off; cur, i = t.parent[int(cur)-t.off], i-1 {
		t.frozenVals[i] = t.value[int(cur)-t.off]
	}
	frozen := 0 // non-dangling blocks in [off, cand]
	for idx := 0; idx <= int(cand)-t.off; idx++ {
		if t.depth[idx] != 0 {
			frozen++
		}
	}
	t.frozenWasted += frozen - chainLen
	// Rebase every per-id slice: shift the live region down in place so
	// backing arrays stay bounded by the live window.
	shift := w - t.off
	t.depth = append(t.depth[:0], t.depth[shift:]...)
	t.parent = append(t.parent[:0], t.parent[shift:]...)
	t.value = append(t.value[:0], t.value[shift:]...)
	t.mark = append(t.mark[:0], t.mark[shift:]...)
	// children is keyed by parent id+1-off: the anchor's slot lands on the
	// genesis slot 0 after the shift.
	for i := 0; i < shift; i++ {
		t.children[i] = nil
	}
	t.children = append(t.children[:0], t.children[shift:]...)
	nroots := t.roots[:0]
	for _, r := range t.roots {
		if int(r) >= w {
			nroots = append(nroots, r)
		}
	}
	t.roots = nroots
	t.off = w
	return w
}

// Height returns the length of the longest chain (0 for an empty view).
func (t *Tree) Height() int { return t.height }

// Watermark returns the first live id: queries for blocks below it panic.
// 0 until the first successful Compact.
func (t *Tree) Watermark() int { return t.off }

// TipFloor returns the smallest id among the longest tips, or -1 for an
// empty tree. levelTips is kept in arrival (ascending-id) order, so this
// is O(1) and allocation-free — it is the reachability floor windowed
// retirement takes the minimum over.
func (t *Tree) TipFloor() appendmem.MsgID {
	if len(t.levelTips) == 0 {
		return -1
	}
	return t.levelTips[0]
}

// belowWatermark panics for ids frozen away by Compact.
func (t *Tree) belowWatermark(id appendmem.MsgID) {
	if id >= 0 && int(id) < t.off {
		panic(fmt.Sprintf("chain: query for id %d below watermark %d", id, t.off))
	}
}

// Depth returns the depth of a block (1 for genesis children) and whether
// the block is in the tree (visible and not dangling). It panics for
// blocks frozen below the compaction watermark.
func (t *Tree) Depth(id appendmem.MsgID) (int, bool) {
	t.belowWatermark(id)
	if id < 0 || int(id) >= t.built || t.depth[int(id)-t.off] == 0 {
		return 0, false
	}
	return int(t.depth[int(id)-t.off]), true
}

// depthOf returns the block's depth, 0 when absent or dangling. It panics
// for blocks frozen below the compaction watermark.
func (t *Tree) depthOf(id appendmem.MsgID) int32 {
	t.belowWatermark(id)
	if id < 0 || int(id) >= t.built {
		return 0
	}
	return t.depth[int(id)-t.off]
}

// Children returns the blocks whose parent is id (use None for the genesis
// level, or the anchor block after a Compact), in arrival order.
func (t *Tree) Children(id appendmem.MsgID) []appendmem.MsgID {
	if id < appendmem.None || int(id)+1-t.off >= len(t.children) || int(id)+1-t.off < 0 {
		return nil
	}
	return append([]appendmem.MsgID(nil), t.children[int(id)+1-t.off]...)
}

// LongestTips returns the tips of all longest chains — every block at
// maximal depth — in arrival order. Empty when the view is empty. The set
// is maintained incrementally, so the call costs O(tips).
func (t *Tree) LongestTips() []appendmem.MsgID {
	return t.AppendLongestTips(nil)
}

// AppendLongestTips appends the longest tips (see LongestTips) to dst and
// returns the extended slice; it allocates nothing when dst has room.
func (t *Tree) AppendLongestTips(dst []appendmem.MsgID) []appendmem.MsgID {
	if t.height == 0 {
		return dst
	}
	return append(dst, t.levelTips...)
}

// ChainTo returns the chain down to tip, inclusive, oldest first: from the
// genesis child, or — after a Compact — from the first live block above
// the anchor. It returns nil when tip is not in the tree.
func (t *Tree) ChainTo(tip appendmem.MsgID) []appendmem.MsgID {
	d := t.depthOf(tip)
	if d == 0 {
		return nil
	}
	n := int(d) - len(t.frozenVals) // live chain length
	chain := make([]appendmem.MsgID, n)
	cur := tip
	for i := n - 1; i >= 0; i-- {
		chain[i] = cur
		cur = t.parentOf(cur)
	}
	if t.off > 0 && cur != appendmem.MsgID(t.off-1) {
		panic("chain: compacted chain does not land on the anchor")
	}
	return chain
}

// Subtree returns the number of live blocks in the subtree rooted at id,
// including id itself. Returns 0 when id is not in the tree.
func (t *Tree) Subtree(id appendmem.MsgID) int {
	if t.depthOf(id) == 0 {
		return 0
	}
	count := 0
	stack := []appendmem.MsgID{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		stack = append(stack, t.children[int(cur)+1-t.off]...)
	}
	return count
}

// Forks returns the number of blocks that are not on any longest chain —
// the "wasted" appends of Theorem 5.4's analysis. Blocks frozen by Compact
// keep contributing through the frozen-wasted tally: the anchor is on
// every longest chain, so their on/off-chain status is final.
func (t *Tree) Forks() int {
	t.markEpoch++
	e := t.markEpoch
	for _, tip := range t.LongestTips() {
		cur := tip
		for int(cur) >= t.off && cur != appendmem.None && t.mark[int(cur)-t.off] != e {
			t.mark[int(cur)-t.off] = e
			cur = t.parentOf(cur)
		}
	}
	wasted := t.frozenWasted
	for idx := 0; idx < t.built-t.off; idx++ {
		if t.depth[idx] != 0 && t.mark[idx] != e {
			wasted++
		}
	}
	return wasted
}

// TieBreaker selects one tip among the longest tips. Implementations must
// handle a non-empty tips slice (in arrival order) and return an element
// of it.
type TieBreaker interface {
	// Pick chooses among tips; view gives access to the blocks' contents
	// and rng supplies the calling node's private randomness (ignored by
	// deterministic rules).
	Pick(tips []appendmem.MsgID, view appendmem.View, rng *xrand.PCG) appendmem.MsgID
}

// FirstTieBreaker implements the deterministic first-seen rule of Garay et
// al.: the earliest-arrived longest tip wins.
type FirstTieBreaker struct{}

// Pick returns the first tip.
func (FirstTieBreaker) Pick(tips []appendmem.MsgID, _ appendmem.View, _ *xrand.PCG) appendmem.MsgID {
	return tips[0]
}

// RandomTieBreaker implements Ren's randomized rule: a uniformly random
// longest tip, drawn from the calling node's randomness.
type RandomTieBreaker struct{}

// Pick returns a uniformly random tip.
func (RandomTieBreaker) Pick(tips []appendmem.MsgID, _ appendmem.View, rng *xrand.PCG) appendmem.MsgID {
	return tips[rng.Intn(len(tips))]
}

// AdversarialTieBreaker is the worst case over all deterministic rules used
// in Theorem 5.3's analysis: if any tip was authored by a Byzantine node,
// the earliest such tip wins; otherwise the first tip.
type AdversarialTieBreaker struct {
	// IsByzantine reports whether the author is Byzantine.
	IsByzantine func(appendmem.NodeID) bool
}

// Pick prefers Byzantine-authored tips.
func (a AdversarialTieBreaker) Pick(tips []appendmem.MsgID, view appendmem.View, _ *xrand.PCG) appendmem.MsgID {
	for _, tip := range tips {
		if a.IsByzantine(view.Message(tip).Author) {
			return tip
		}
	}
	return tips[0]
}

// SelectTip builds the tree of view and returns the tip chosen by tb among
// the longest chains, or (None, false) for an empty/all-dangling view.
func SelectTip(view appendmem.View, tb TieBreaker, rng *xrand.PCG) (appendmem.MsgID, bool) {
	tips := Build(view).LongestTips()
	if len(tips) == 0 {
		return appendmem.None, false
	}
	return tb.Pick(tips, view, rng), true
}

// PrefixValues returns the values of the first k blocks of the chain ending
// at tip (oldest first); fewer when the chain is shorter. This is the
// decision input of Algorithm 5 Line 10. The prefix spans the full chain
// from genesis even after a Compact: the frozen chain's values are exactly
// what Compact retains, so windowed decisions match unwindowed ones.
func (t *Tree) PrefixValues(tip appendmem.MsgID, k int) []int64 {
	d := t.depthOf(tip)
	if d == 0 {
		return nil
	}
	n := int(d)
	if n > k {
		n = k
	}
	vals := make([]int64, n)
	if n <= len(t.frozenVals) {
		copy(vals, t.frozenVals[:n])
		return vals
	}
	copy(vals, t.frozenVals)
	// Walk the live chain down to the anchor, filling the tail backwards;
	// entries above position n-1 are skipped.
	cur := tip
	for i := int(d) - 1; i >= len(t.frozenVals); i-- {
		if i < n {
			vals[i] = t.valueOf(cur)
		}
		cur = t.parentOf(cur)
	}
	return vals
}

// CommonPrefix returns the longest common prefix of the chains ending at
// the two tips (oldest first). Used to check consistency-style properties.
func (t *Tree) CommonPrefix(a, b appendmem.MsgID) []appendmem.MsgID {
	ca, cb := t.ChainTo(a), t.ChainTo(b)
	n := len(ca)
	if len(cb) < n {
		n = len(cb)
	}
	var prefix []appendmem.MsgID
	for i := 0; i < n; i++ {
		if ca[i] != cb[i] {
			break
		}
		prefix = append(prefix, ca[i])
	}
	return prefix
}

// SortByDepth orders ids by (depth, arrival) ascending; a deterministic
// helper for rendering and tests.
func (t *Tree) SortByDepth(ids []appendmem.MsgID) {
	slices.SortFunc(ids, func(a, b appendmem.MsgID) int {
		if c := cmp.Compare(t.depthOf(a), t.depthOf(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// Cached is a reusable index handle for one consumer whose reads of a
// single memory grow monotonically (every View is a prefix of the next —
// the append-memory invariant every protocol loop and analyzer obeys). At
// extends the held index by the view's new suffix instead of rebuilding;
// when handed a view of a different memory or an older prefix (e.g. an
// asynchronous node's stale append view) it falls back to a from-scratch
// Build, so it is always correct and only *fast* in the monotone case.
//
// The zero value is not ready; use NewCached. A Cached must not be shared
// across goroutines.
type Cached struct {
	t *Tree
}

// NewCached returns an empty handle; the first At builds the index.
func NewCached() *Cached { return &Cached{} }

// At returns the index of view, extending the previously returned index
// when view is a forward read of the same memory. The returned Tree is
// owned by the handle and is invalidated (re-pointed at a larger view) by
// the next At call.
func (c *Cached) At(view appendmem.View) *Tree {
	if c.t != nil && c.t.view.SubsetOf(view) {
		c.t.Extend(view)
		return c.t
	}
	c.t = Build(view)
	return c.t
}

// Extends reports whether At(view) extends the held index instead of
// rebuilding it: before the first At, or when the held index's view is a
// prefix of view.
func (c *Cached) Extends(view appendmem.View) bool {
	return c.t == nil || c.t.view.SubsetOf(view)
}

// Floor returns the smallest id the handle may still touch on its next At
// or append decision: the minimum of the held index's tip floor and its
// built size (an Extend reads the memory from there). 0 when no index has
// been built yet — such a consumer would Build from id 0, so nothing may
// be retired under it.
func (c *Cached) Floor() int {
	if c.t == nil {
		return 0
	}
	f := c.t.built
	if tf := c.t.TipFloor(); tf >= 0 && int(tf) < f {
		f = int(tf)
	}
	return f
}

// CompactTo forwards Compact(reqW) to the held index and returns the
// watermark achieved; 0 when no index exists yet.
func (c *Cached) CompactTo(reqW int) int {
	if c.t == nil {
		return 0
	}
	return c.t.Compact(reqW)
}
