// Package dag implements the BlockDAG structure of Section 5.3: appended
// messages reference *all* latest seen appends ("childless states"), forming
// a directed acyclic graph rooted at a virtual genesis.
//
// Ordering a DAG requires a pivot rule; the paper names two (Algorithm 6's
// correctness "is based on one of the tie-breaking rules"):
//
//   - GHOST (Sompolinsky & Zohar [22]): descend the selected-parent tree
//     into the child with the heaviest subtree.
//   - Longest chain (Conflux pivot [14]): follow the longest selected-parent
//     chain.
//
// Each block's first parent is its *selected parent*; the selected-parent
// edges form a tree embedded in the DAG over which both pivot rules walk.
// Given a pivot chain, Linearize produces the total order of Algorithm 6
// Line 9: pivot blocks in order, each preceded by the not-yet-ordered
// blocks of its past cone ("epoch"), topologically sorted with a
// deterministic tie-break. The linearization is a linear extension of the
// DAG's ancestry partial order and identical for identical views — the two
// properties Byzantine agreement on the DAG rests on.
//
// # Incremental indexing
//
// A Dag is a dense-slice index over the view's MsgID space (IDs are the
// contiguous 0..Size-1 arrival prefix of one append-only Memory, and
// parents always carry smaller IDs than their children). Build constructs
// the index from scratch; Extend ingests only the blocks appended since the
// previous view, keeping every derived quantity — depth, selected-parent
// tree depth, GHOST subtree weights and their per-parent tie-state, the tip
// set, both pivot anchors — incrementally correct. Extending by one block
// costs O(parents) plus one walk up the block's selected-parent path for
// the weight updates, instead of the O(view) full rebuild; a consumer that
// re-reads a growing memory every step (see Cached) pays amortized O(1) per
// block instead of O(view) per step. The index keeps no children table:
// every per-block slice is keyed by the block itself (or, for the GHOST
// tie-state, by the parent whose heaviest kid it records), and the rare
// child query (Children) walks parent links on demand.
//
// # Memoized ordering
//
// A pivot block's past cone never changes — parents are fixed at append
// time — so the epoch a pivot block contributes to the linearization
// depends only on the pivot prefix up to and including it. The index keeps
// the epochs of the last pivot prefix it ordered; an ordering call finds
// the first pivot position that differs from that memo, drops the memo
// from there, and resumes the epoch walk at that position, stopping once
// the requested prefix is covered. Between two decision checks the pivot
// usually only grows at its tip, so a check orders the new epochs only.
package dag

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/appendmem"
)

// Dag indexes the multi-parent structure of a view. Blocks with any parent
// reference outside the view are dangling and excluded (with the append
// memory this needs a malformed reference, since parents always precede
// children). All per-block data lives in slices indexed by MsgID minus the
// compaction origin `off`; the parent-keyed slices use index int(id)+1-off
// so the virtual genesis (appendmem.None) — or, after a Compact, the
// anchor block off-1 — occupies slot 0.
//
// Once compaction is engaged the index caches parents, values and
// (author, seq), so every query is answered from the index alone: a
// windowed memory may retire messages the index still holds live, and the
// traversals must not read them back.
type Dag struct {
	view  appendmem.View
	built int // number of view-prefix blocks ingested
	size  int // non-dangling blocks, including frozen ones

	off       int               // first live id; per-id slices index id-off
	inDag     []bool            // by id-off
	depth     []int32           // longest all-parent path; genesis children = 1; 0 = dangling
	treeDepth []int32           // selected-parent tree depth; 0 = dangling
	weight    []int32           // selected-parent subtree size
	ghostBest []appendmem.MsgID // by parent id+1-off: earliest heaviest tree kid; None when childless
	parent    []appendmem.MsgID // selected parent, cached to avoid Message lookups on hot walks

	// Structure caches, materialized by the first Compact and maintained
	// by extend from then on: a windowed memory may retire messages the
	// index still answers for, so a compacting index must never re-read
	// the view. Until then traversals read the view directly and the
	// caches cost nothing — the unbounded path carries no windowed
	// overhead.
	tracking  bool
	parents   [][]appendmem.MsgID // by id-off: all parent refs, spans into parArena
	value     []int64             // by id-off: block value
	authorSeq []int64             // by id-off: author<<32|seq, the linearize tie-break key
	parArena  []appendmem.MsgID   // current parent-span arena block

	height int

	// Longest selected-parent chain anchor: the earliest-arrived deepest
	// tree block (LongestPivot's tie-break), maintained on Extend.
	bestTreeTip   appendmem.MsgID
	bestTreeDepth int32

	// tips is the current childless set in ascending id (= arrival) order.
	tips []appendmem.MsgID

	// Frozen-prefix state: the linearized values of the blocks at or below
	// the anchor (a shared prefix of both pivot rules' orders — see
	// Compact) and the anchor's selected-parent tree depth.
	frozenVals      []int64
	anchorTreeDepth int32

	// Memoized ordering (see order): the pivot prefix whose epochs are
	// ordered, those epochs concatenated (each pivot block last in its
	// own) with their blocks' values, the end offset of each epoch in
	// memoOrder, and per block the 1-based memo position of the pivot
	// block whose epoch holds it (0 = not in the memo).
	memoPivot []appendmem.MsgID
	memoOrder []appendmem.MsgID
	memoVals  []int64
	memoEnds  []int
	epochOf   []int32 // by id-off

	// Epoch-stamped scratch for the traversal helpers: a slot is "visited"
	// in the current traversal iff its stamp equals the current epoch, so
	// clearing between traversals is a counter increment, not an O(V) wipe.
	visited    []uint64
	visitEpoch uint64
	dfsStack   []appendmem.MsgID
}

// SelectedParent returns the block's selected parent: Parents[0], or None
// for genesis children.
func SelectedParent(msg *appendmem.Message) appendmem.MsgID {
	if len(msg.Parents) == 0 {
		return appendmem.None
	}
	return msg.Parents[0]
}

// Build indexes the DAG of view from scratch.
func Build(view appendmem.View) *Dag {
	d := &Dag{}
	d.Rebuild(view)
	return d
}

// Rebuild re-indexes the Dag from scratch over view, keeping the capacity
// of every slice: the result answers exactly like Build(view). The
// compaction state, the structure caches and the ordering memo go too, so
// a recycled windowed index starts unbounded again.
func (d *Dag) Rebuild(view appendmem.View) {
	n := view.Size()
	clear(d.parents[:cap(d.parents)]) // drop the spans into old arena blocks
	*d = Dag{
		view:        view,
		inDag:       slices.Grow(d.inDag[:0], n),
		depth:       slices.Grow(d.depth[:0], n),
		treeDepth:   slices.Grow(d.treeDepth[:0], n),
		weight:      slices.Grow(d.weight[:0], n),
		ghostBest:   append(slices.Grow(d.ghostBest[:0], n+1), appendmem.None),
		parent:      slices.Grow(d.parent[:0], n),
		parents:     d.parents[:0],
		value:       d.value[:0],
		authorSeq:   d.authorSeq[:0],
		parArena:    d.parArena[:0],
		bestTreeTip: appendmem.None,
		tips:        d.tips[:0],
		frozenVals:  d.frozenVals[:0],
		memoPivot:   d.memoPivot[:0],
		memoOrder:   d.memoOrder[:0],
		memoVals:    d.memoVals[:0],
		memoEnds:    d.memoEnds[:0],
		epochOf:     slices.Grow(d.epochOf[:0], n),
		visited:     slices.Grow(d.visited[:0], n),
		visitEpoch:  d.visitEpoch,
		dfsStack:    d.dfsStack[:0],
	}
	d.extend(n)
}

// Extend ingests the blocks appended between the Dag's current view and
// view, which must be a later read of the same memory (the Dag's view is a
// prefix of it). All queries afterwards answer for the extended view. It
// panics when view is not an extension.
func (d *Dag) Extend(view appendmem.View) {
	if !d.view.SubsetOf(view) {
		panic("dag: Extend with a view that does not extend the indexed one")
	}
	d.view = view
	d.extend(view.Size())
}

// Parent-span arena geometry, mirroring the append memory's: blocks
// double from parArenaBase up to parArenaMax, so interning a block's
// parents amortizes to zero allocations.
const (
	parArenaBase = 64
	parArenaMax  = 16384
)

// internParents copies ps into the index-owned arena and returns the
// span. The index must answer traversals without reading the memory —
// a windowed memory may retire messages the index still holds live.
func (d *Dag) internParents(ps []appendmem.MsgID) []appendmem.MsgID {
	if len(ps) == 0 {
		return nil
	}
	if cap(d.parArena)-len(d.parArena) < len(ps) {
		c := cap(d.parArena) * 2
		if c < parArenaBase {
			c = parArenaBase
		}
		if c > parArenaMax {
			c = parArenaMax
		}
		if len(ps) > c {
			c = len(ps)
		}
		d.parArena = make([]appendmem.MsgID, 0, c)
	}
	start := len(d.parArena)
	d.parArena = append(d.parArena, ps...)
	return d.parArena[start:len(d.parArena):len(d.parArena)]
}

// track materializes the parents/value/authorSeq caches from the view.
// Called by the first Compact, which always precedes any memory
// retirement (the harness compacts indexes before retiring chunks), so
// every built id is still readable here. Dangling blocks keep zero slots,
// exactly as a tracking extend would have left them.
func (d *Dag) track() {
	if d.tracking {
		return
	}
	d.tracking = true
	n := d.built - d.off
	d.parents = slices.Grow(d.parents[:0], n)[:n]
	d.value = slices.Grow(d.value[:0], n)[:n]
	d.authorSeq = slices.Grow(d.authorSeq[:0], n)[:n]
	clear(d.parents)
	clear(d.value)
	clear(d.authorSeq)
	for id := appendmem.MsgID(d.off); int(id) < d.built; id++ {
		idx := int(id) - d.off
		if !d.inDag[idx] {
			continue
		}
		msg := d.view.Message(id)
		d.parents[idx] = d.internParents(msg.Parents)
		d.value[idx] = msg.Value
		d.authorSeq[idx] = int64(msg.Author)<<32 | int64(msg.Seq)
	}
}

// parentsOf returns the parent refs of a built block, from the cache when
// compaction is engaged and from the view otherwise.
func (d *Dag) parentsOf(id appendmem.MsgID) []appendmem.MsgID {
	if d.tracking {
		return d.parents[int(id)-d.off]
	}
	return d.view.Message(id).Parents
}

// valueOf is parentsOf's counterpart for the block value.
func (d *Dag) valueOf(id appendmem.MsgID) int64 {
	if d.tracking {
		return d.value[int(id)-d.off]
	}
	return d.view.Message(id).Value
}

// authorSeqOf is parentsOf's counterpart for the linearize tie-break key.
func (d *Dag) authorSeqOf(id appendmem.MsgID) int64 {
	if d.tracking {
		return d.authorSeq[int(id)-d.off]
	}
	msg := d.view.Message(id)
	return int64(msg.Author)<<32 | int64(msg.Seq)
}

// extend ingests ids [d.built, size).
func (d *Dag) extend(size int) {
	for id := appendmem.MsgID(d.built); int(id) < size; id++ {
		msg := d.view.Message(id)
		idx := int(id) - d.off
		ok := true
		var maxDepth int32
		for _, p := range msg.Parents {
			if p == appendmem.None {
				continue
			}
			if int(p) < d.off || !d.inDag[int(p)-d.off] {
				ok = false // dangling: parent invisible, dangling or frozen away
				break
			}
			if d.depth[int(p)-d.off] > maxDepth {
				maxDepth = d.depth[int(p)-d.off]
			}
		}
		// Grow the per-id slots (zero values = dangling).
		d.inDag = append(d.inDag, false)
		d.depth = append(d.depth, 0)
		d.treeDepth = append(d.treeDepth, 0)
		d.weight = append(d.weight, 0)
		d.ghostBest = append(d.ghostBest, appendmem.None)
		d.parent = append(d.parent, appendmem.None)
		if d.tracking {
			d.parents = append(d.parents, nil)
			d.value = append(d.value, 0)
			d.authorSeq = append(d.authorSeq, 0)
		}
		d.visited = append(d.visited, 0)
		d.epochOf = append(d.epochOf, 0)
		if !ok {
			continue
		}
		d.inDag[idx] = true
		d.size++
		d.depth[idx] = maxDepth + 1
		if d.tracking {
			d.parents[idx] = d.internParents(msg.Parents)
			d.value[idx] = msg.Value
			d.authorSeq[idx] = int64(msg.Author)<<32 | int64(msg.Seq)
		}
		if int(d.depth[idx]) > d.height {
			d.height = int(d.depth[idx])
		}
		// Tip maintenance: every referenced parent stops being childless
		// (a duplicate reference finds it gone already), the new block
		// becomes the (largest-id) tip.
		for _, p := range msg.Parents {
			if p != appendmem.None {
				d.dropTip(p)
			}
		}
		d.tips = append(d.tips, id)

		// Selected-parent tree: attach, then push the new block's unit
		// weight up the selected-parent path, keeping each ancestor's
		// heaviest-kid tie-state exact. The walk stops at the compaction
		// anchor: the frozen pivot prefix no longer competes, so its
		// weights need not stay current.
		sp := SelectedParent(msg)
		d.parent[idx] = sp
		if sp == appendmem.None {
			d.treeDepth[idx] = 1
		} else {
			d.treeDepth[idx] = d.treeDepth[int(sp)-d.off] + 1
		}
		if d.treeDepth[idx] > d.bestTreeDepth {
			d.bestTreeDepth, d.bestTreeTip = d.treeDepth[idx], id
		}
		d.weight[idx] = 1
		if int(sp)+1-d.off >= 0 {
			d.bumpGhostBest(sp, id)
		}
		for p := sp; int(p) >= d.off; {
			d.weight[int(p)-d.off]++
			pp := d.parent[int(p)-d.off]
			if int(pp)+1-d.off >= 0 {
				d.bumpGhostBest(pp, p)
			}
			p = pp
		}
	}
	d.built = size
}

// dropTip removes p from the tip set; no-op when p is not a tip. The set
// is kept in ascending id order, so the search is binary.
func (d *Dag) dropTip(p appendmem.MsgID) {
	if i, ok := slices.BinarySearch(d.tips, p); ok {
		d.tips = slices.Delete(d.tips, i, i+1)
	}
}

// bumpGhostBest re-establishes "ghostBest[p] is the earliest-arrived
// maximum-weight selected-parent kid of p" after kid's weight grew by one.
// Increments preserve the invariant with a single comparison: kid either
// was the best (still is), strictly passes the best, or ties it — and a tie
// goes to the earlier arrival, matching the from-scratch arrival-order scan.
func (d *Dag) bumpGhostBest(p, kid appendmem.MsgID) {
	slot := int(p) + 1 - d.off
	cur := d.ghostBest[slot]
	if cur == kid {
		return
	}
	if cur == appendmem.None || d.weight[int(kid)-d.off] > d.weight[int(cur)-d.off] ||
		(d.weight[int(kid)-d.off] == d.weight[int(cur)-d.off] && kid < cur) {
		d.ghostBest[slot] = kid
	}
}

// View returns the view the DAG was built from (the latest extension).
func (d *Dag) View() appendmem.View { return d.view }

// Size returns the number of non-dangling blocks.
func (d *Dag) Size() int { return d.size }

// Height returns the longest all-parent path length from genesis.
func (d *Dag) Height() int { return d.height }

// belowWatermark panics for ids frozen away by Compact.
func (d *Dag) belowWatermark(id appendmem.MsgID) {
	if id >= 0 && int(id) < d.off {
		panic(fmt.Sprintf("dag: query for id %d below watermark %d", id, d.off))
	}
}

// Contains reports whether the block is in the DAG (visible, well-formed).
// It panics for blocks frozen below the compaction watermark.
func (d *Dag) Contains(id appendmem.MsgID) bool {
	d.belowWatermark(id)
	return id >= 0 && int(id) < d.built && d.inDag[int(id)-d.off]
}

// Depth returns the block's depth (genesis children have depth 1) and
// whether it is in the DAG. It panics below the compaction watermark.
func (d *Dag) Depth(id appendmem.MsgID) (int, bool) {
	if !d.Contains(id) {
		return 0, false
	}
	return int(d.depth[int(id)-d.off]), true
}

// Weight returns the selected-parent subtree size of the block (the GHOST
// weight), or 0 when absent. It panics below the compaction watermark.
// Live weights stay exact across Compact: a block's subtree holds only
// blocks with larger ids, which retirement never touches.
func (d *Dag) Weight(id appendmem.MsgID) int {
	if !d.Contains(id) {
		return 0
	}
	return int(d.weight[int(id)-d.off])
}

// Tips returns the blocks with no children over any parent edge — the set
// C of "last states which do not have child nodes" that Algorithm 6 Line 5
// references — in arrival order.
func (d *Dag) Tips() []appendmem.MsgID {
	return d.AppendTips(nil)
}

// AppendTips appends the tips (see Tips) to dst and returns the extended
// slice; it allocates nothing when dst has room.
func (d *Dag) AppendTips(dst []appendmem.MsgID) []appendmem.MsgID {
	return append(dst, d.tips...)
}

// Children returns the blocks that list id among their parents (None for
// genesis children, or the anchor block after a Compact), in arrival
// order. Nil for ids outside the live index — below the anchor (None too,
// once compacted) or beyond the view. It scans the live index, O(view).
func (d *Dag) Children(id appendmem.MsgID) []appendmem.MsgID {
	if id < appendmem.None || int(id) >= d.built || int(id)+1 < d.off {
		return nil
	}
	var kids []appendmem.MsgID
	for c := max(appendmem.MsgID(d.off), id+1); int(c) < d.built; c++ {
		if !d.inDag[int(c)-d.off] {
			continue
		}
		ps := d.parentsOf(c)
		if slices.Contains(ps, id) || (id == appendmem.None && len(ps) == 0) {
			kids = append(kids, c)
		}
	}
	return kids
}

// GhostPivot returns the pivot chain chosen by the GHOST rule: from the
// genesis, repeatedly descend into the selected-parent child with the
// largest subtree weight, breaking ties by arrival order. Oldest first;
// empty for an empty DAG. The heaviest-kid choice is maintained
// incrementally on Extend, so retrieval is O(pivot length).
// After a Compact the walk starts at the anchor (slot 0) and the returned
// chain is the live pivot segment; the frozen prefix is fixed and already
// folded into OrderedValues.
func (d *Dag) GhostPivot() []appendmem.MsgID {
	return d.AppendGhostPivot(nil)
}

// AppendGhostPivot appends the GHOST pivot chain to dst and returns the
// extended slice; it allocates nothing when dst has room.
func (d *Dag) AppendGhostPivot(dst []appendmem.MsgID) []appendmem.MsgID {
	slot := 0
	for {
		best := d.ghostBest[slot]
		if best == appendmem.None {
			return dst
		}
		dst = append(dst, best)
		slot = int(best) + 1 - d.off
	}
}

// LongestPivot returns the pivot chain chosen by the longest-chain rule
// over the selected-parent tree, ties by arrival order. Oldest first. The
// deepest tree tip is maintained on Extend, so retrieval is O(pivot
// length).
func (d *Dag) LongestPivot() []appendmem.MsgID {
	return d.AppendLongestPivot(nil)
}

// AppendLongestPivot appends the longest-rule pivot chain to dst and
// returns the extended slice; it allocates nothing when dst has room.
func (d *Dag) AppendLongestPivot(dst []appendmem.MsgID) []appendmem.MsgID {
	if d.bestTreeTip == appendmem.None {
		return dst
	}
	start := len(dst)
	n := int(d.bestTreeDepth - d.anchorTreeDepth)
	dst = slices.Grow(dst, n)[:start+n]
	cur := d.bestTreeTip
	for i := start + n - 1; i >= start; i-- {
		dst[i] = cur
		cur = d.parent[int(cur)-d.off]
	}
	return dst
}

// PastCone returns all ancestors of id over all parent edges, including id
// itself, in ascending id order. Empty when id is not in the DAG. The
// traversal reuses the Dag's epoch-stamped scratch, so the only allocation
// is the returned slice.
// After a Compact the cone is truncated at the watermark: frozen
// ancestors are already ordered and no longer enumerable.
func (d *Dag) PastCone(id appendmem.MsgID) []appendmem.MsgID {
	if !d.Contains(id) {
		return nil
	}
	d.visitEpoch++
	e := d.visitEpoch
	d.visited[int(id)-d.off] = e
	stack := append(d.dfsStack[:0], id)
	cone := []appendmem.MsgID{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range d.parentsOf(cur) {
			if p == appendmem.None || int(p) < d.off {
				continue
			}
			if d.visited[int(p)-d.off] != e {
				d.visited[int(p)-d.off] = e
				cone = append(cone, p)
				stack = append(stack, p)
			}
		}
	}
	d.dfsStack = stack
	slices.Sort(cone)
	return cone
}

// IsAncestor reports whether a is an ancestor of b (or equal) over all
// parent edges. The search walks b's ancestry pruning branches that are
// already too shallow or too old to reach a, and stops as soon as a is
// found instead of materializing the full cone.
func (d *Dag) IsAncestor(a, b appendmem.MsgID) bool {
	if !d.Contains(a) || !d.Contains(b) {
		return false
	}
	if a == b {
		return true
	}
	da := d.depth[int(a)-d.off]
	d.visitEpoch++
	e := d.visitEpoch
	d.visited[int(b)-d.off] = e
	stack := append(d.dfsStack[:0], b)
	found := false
	for len(stack) > 0 && !found {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range d.parentsOf(cur) {
			if p == a {
				found = true
				break
			}
			// Ancestor ids strictly decrease and depths strictly decrease
			// along parent edges: anything older or shallower than a cannot
			// lead back to it. (a >= off, so frozen parents prune here too.)
			if p == appendmem.None || p < a || d.depth[int(p)-d.off] <= da || d.visited[int(p)-d.off] == e {
				continue
			}
			d.visited[int(p)-d.off] = e
			stack = append(stack, p)
		}
	}
	d.dfsStack = stack[:0]
	return found
}

// Linearize returns the total order over the past cone of the pivot tip:
// for each pivot block in order, the blocks of its past cone not ordered by
// earlier pivot blocks ("its epoch"), sorted by (depth, author, seq), with
// the pivot block last in its epoch. Since every ancestor has strictly
// smaller depth, the result is a linear extension of the DAG's ancestry
// order. Blocks outside the pivot tip's past cone are not ordered (they
// will be, once a later pivot block references them).
func (d *Dag) Linearize(pivot []appendmem.MsgID) []appendmem.MsgID {
	return d.AppendLinearize(nil, pivot, math.MaxInt)
}

// AppendLinearize appends the first limit blocks of Linearize(pivot) to
// dst and returns the extended slice — the prefix-bounded ordering. It
// orders only the epochs the memo (see the package doc) does not already
// hold for pivot's prefix, stopping after the first epoch that reaches
// the limit: an epoch is sorted as a whole, so the order up to its end is
// final whatever later pivot blocks add. It allocates nothing when dst
// has room and the memo's buffers have grown to the ordering's size.
func (d *Dag) AppendLinearize(dst, pivot []appendmem.MsgID, limit int) []appendmem.MsgID {
	return append(dst, d.order(pivot, limit)...)
}

// order returns the first limit blocks of Linearize(pivot) as a slice of
// the memo, valid until the next ordering call, Compact or Rebuild.
func (d *Dag) order(pivot []appendmem.MsgID, limit int) []appendmem.MsgID {
	if limit <= 0 {
		return nil
	}
	// Reuse the memo's epochs up to the first pivot block that differs.
	n := 0
	for n < len(pivot) && n < len(d.memoPivot) && pivot[n] == d.memoPivot[n] {
		if d.memoEnds[n] >= limit {
			return d.memoOrder[:limit]
		}
		n++
	}
	if n == len(pivot) { // pivot is a prefix of the memo's
		if n == 0 {
			return nil
		}
		return d.memoOrder[:d.memoEnds[n-1]]
	}
	d.truncateMemo(n)
	for ; n < len(pivot) && len(d.memoOrder) < limit; n++ {
		d.orderEpoch(pivot[n])
	}
	return d.memoOrder[:min(limit, len(d.memoOrder))]
}

// truncateMemo keeps the first n epochs of the memo, unmarking the blocks
// the dropped ones ordered.
func (d *Dag) truncateMemo(n int) {
	if n >= len(d.memoPivot) {
		return
	}
	end := 0
	if n > 0 {
		end = d.memoEnds[n-1]
	}
	for _, id := range d.memoOrder[end:] {
		// A block listed twice (a malformed pivot may repeat an ordered
		// block) keeps the mark of its first, possibly surviving, epoch.
		if int(d.epochOf[int(id)-d.off]) > n {
			d.epochOf[int(id)-d.off] = 0
		}
	}
	d.memoPivot, d.memoEnds = d.memoPivot[:n], d.memoEnds[:n]
	d.memoOrder, d.memoVals = d.memoOrder[:end], d.memoVals[:end]
}

// orderEpoch appends the epoch of pivot block pb, the next one after the
// memo's: the ancestors of pb no earlier epoch ordered, sorted, then pb.
// The DFS stops at already-ordered blocks, so each block is visited once
// across the whole ordering (amortized O(V+E) instead of one full
// past-cone walk per pivot block). Frozen parents (below the watermark)
// are by construction inside the anchor's past cone, i.e. ordered by the
// frozen prefix, so the DFS treats them exactly like earlier-epoch blocks
// and stops.
func (d *Dag) orderEpoch(pb appendmem.MsgID) {
	pos := int32(len(d.memoPivot)) + 1
	if d.epochOf[int(pb)-d.off] == 0 {
		d.epochOf[int(pb)-d.off] = pos
	}
	start := len(d.memoOrder)
	stack := append(d.dfsStack[:0], pb)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur != pb {
			d.memoOrder = append(d.memoOrder, cur)
		}
		for _, p := range d.parentsOf(cur) {
			if p != appendmem.None && int(p) >= d.off && d.epochOf[int(p)-d.off] == 0 {
				d.epochOf[int(p)-d.off] = pos
				stack = append(stack, p)
			}
		}
	}
	d.dfsStack = stack
	slices.SortFunc(d.memoOrder[start:], d.before)
	d.memoOrder = append(d.memoOrder, pb)
	for _, id := range d.memoOrder[start:] {
		d.memoVals = append(d.memoVals, d.valueOf(id))
	}
	d.memoPivot = append(d.memoPivot, pb)
	d.memoEnds = append(d.memoEnds, len(d.memoOrder))
}

// before is the order within an epoch: by depth, then author, then seq.
// (depth, author, seq) is unique per block, so any sort yields the same
// order.
func (d *Dag) before(a, b appendmem.MsgID) int {
	if c := cmp.Compare(d.depth[int(a)-d.off], d.depth[int(b)-d.off]); c != 0 {
		return c
	}
	// authorSeq packs (author, seq) so one compare is the lexicographic
	// tie-break.
	return cmp.Compare(d.authorSeqOf(a), d.authorSeqOf(b))
}

// OrderedValues returns the values of the first k blocks in the
// linearization of the given pivot — the decision input of Algorithm 6
// Line 10. Fewer than k when the ordering is shorter. After a Compact the
// frozen prefix supplies the leading values and pivot is the live segment
// (what GhostPivot/LongestPivot return), so decisions are unchanged by
// retirement.
func (d *Dag) OrderedValues(pivot []appendmem.MsgID, k int) []int64 {
	return d.AppendOrderedValues(nil, pivot, k)
}

// AppendOrderedValues appends OrderedValues(pivot, k) to dst and returns
// the extended slice. It reads the prefix-bounded ordering (see
// AppendLinearize), so the call allocates nothing when dst has room.
func (d *Dag) AppendOrderedValues(dst []int64, pivot []appendmem.MsgID, k int) []int64 {
	if k <= len(d.frozenVals) {
		return append(dst, d.frozenVals[:k]...)
	}
	n := len(d.order(pivot, k-len(d.frozenVals)))
	return append(append(dst, d.frozenVals...), d.memoVals[:n]...)
}

// Watermark returns the compaction watermark: the first id still held
// live. Queries below it panic. 0 before any successful Compact.
func (d *Dag) Watermark() int { return d.off }

// TipFloor returns the smallest id in the childless set, or -1 for an
// empty DAG — the reachability floor windowed retirement takes the
// minimum over, since every future block's parents draw from the current
// tips or newer.
func (d *Dag) TipFloor() appendmem.MsgID {
	if len(d.tips) == 0 {
		return -1
	}
	return d.tips[0]
}

// Compact retires the index prefix below a safe anchor: the deepest
// ghost-pivot block, strictly below both reqW and every current tip, that
// (a) every live block descends from in the selected-parent tree and (b)
// whose past cone contains every live block at or below it. Under (a) both
// pivot rules pass through the anchor forever (its subtree alone keeps
// growing, frozen siblings never catch up), and under (b) the prefix of
// the linearization up to the anchor is fixed, so its values are frozen
// into frozenVals and the dense slices are rebased in place — dropping the
// retired ids' slots and handing the anchor the virtual-genesis slot 0.
//
// Compact is conservative: when no anchor at or below reqW qualifies
// (e.g. a fork off the deep past is still live), it declines and returns
// the current watermark. The watermark is monotone; ids below it panic.
// Decisions are unaffected: heights, sizes, tips, weights of live blocks,
// fork counts and OrderedValues all answer exactly as the uncompacted
// index would.
func (d *Dag) Compact(reqW int) int {
	d.track()
	if reqW > d.built {
		reqW = d.built
	}
	if reqW <= d.off || d.bestTreeTip == appendmem.None {
		return d.off
	}
	limit := reqW
	if len(d.tips) > 0 && int(d.tips[0]) < limit {
		limit = int(d.tips[0])
	}
	if int(d.bestTreeTip) < limit {
		limit = int(d.bestTreeTip)
	}
	if limit <= d.off {
		return d.off
	}
	// Candidate: deepest ghost-pivot block with id < limit. The pivot path
	// from the old anchor to the candidate is recorded for the freeze step
	// (a fresh slice: the ordering memo keeps its own pivot buffer).
	var seg []appendmem.MsgID
	cand := appendmem.None
	slot := 0
	for {
		best := d.ghostBest[slot]
		if best == appendmem.None || int(best) >= limit {
			break
		}
		cand = best
		seg = append(seg, best)
		slot = int(best) + 1 - d.off
	}
	if cand == appendmem.None {
		return d.off
	}
	// (a) Every live block above the candidate must descend from it in the
	// selected-parent tree. Parents precede children, so one ascending
	// marking pass suffices.
	d.visitEpoch++
	e := d.visitEpoch
	d.visited[int(cand)-d.off] = e
	for i := int(cand) + 1 - d.off; i < len(d.inDag); i++ {
		if !d.inDag[i] {
			continue
		}
		sp := d.parent[i]
		if int(sp) < d.off || d.visited[int(sp)-d.off] != e {
			return d.off
		}
		d.visited[i] = e
	}
	// (b) Every live block at or below the candidate must be in its past
	// cone — otherwise the cone walk skipping frozen parents would miss
	// blocks the full linearization orders. Blocks below the old watermark
	// satisfied (b) at their own retirement, so the walk prunes there.
	d.visitEpoch++
	e = d.visitEpoch
	d.visited[int(cand)-d.off] = e
	stack := append(d.dfsStack[:0], cand)
	covered := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range d.parents[int(cur)-d.off] {
			if p == appendmem.None || int(p) < d.off {
				continue
			}
			if d.visited[int(p)-d.off] != e {
				d.visited[int(p)-d.off] = e
				covered++
				stack = append(stack, p)
			}
		}
	}
	d.dfsStack = stack[:0]
	live := 0
	for i := 0; i <= int(cand)-d.off; i++ {
		if d.inDag[i] {
			live++
		}
	}
	if covered != live {
		return d.off
	}
	// Freeze: order the pivot segment ending at the candidate. By (b)
	// this orders exactly the live blocks at or below it, extending
	// frozenVals by the same values the full index's linearization holds
	// at those positions. The segment is the head of the live GHOST pivot,
	// so a memo of that pivot already holds its epochs. The memo then goes:
	// its ids are about to be rebased and its head frozen.
	if n := len(d.order(seg, math.MaxInt)); n != live {
		panic(fmt.Sprintf("dag: Compact froze %d blocks, expected %d", n, live))
	}
	d.frozenVals = append(d.frozenVals, d.memoVals[:live]...)
	d.truncateMemo(0)
	d.anchorTreeDepth = d.treeDepth[int(cand)-d.off]

	// Rebase all dense slices in place: live data shifts down by
	// newOff-off; the anchor's parent-keyed slots land on slot 0.
	newOff := int(cand) + 1
	shift := newOff - d.off
	d.inDag = d.inDag[:copy(d.inDag, d.inDag[shift:])]
	d.depth = d.depth[:copy(d.depth, d.depth[shift:])]
	d.treeDepth = d.treeDepth[:copy(d.treeDepth, d.treeDepth[shift:])]
	d.weight = d.weight[:copy(d.weight, d.weight[shift:])]
	d.parent = d.parent[:copy(d.parent, d.parent[shift:])]
	d.parents = d.parents[:copy(d.parents, d.parents[shift:])]
	d.value = d.value[:copy(d.value, d.value[shift:])]
	d.authorSeq = d.authorSeq[:copy(d.authorSeq, d.authorSeq[shift:])]
	d.visited = d.visited[:copy(d.visited, d.visited[shift:])]
	d.epochOf = d.epochOf[:copy(d.epochOf, d.epochOf[shift:])]
	d.ghostBest = d.ghostBest[:copy(d.ghostBest, d.ghostBest[shift:])]
	d.off = newOff
	return d.off
}

// Cached is the reusable index handle (appendmem.Cached) over Dags.
type Cached = appendmem.Cached[*Dag]

// NewCached returns an empty handle; the first At builds the index.
func NewCached() *Cached { return appendmem.NewCached(Build) }
