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
// block instead of O(view) per step.
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

	off       int                 // first live id; per-id slices index id-off
	inDag     []bool              // by id-off
	depth     []int32             // longest all-parent path; genesis children = 1; 0 = dangling
	treeDepth []int32             // selected-parent tree depth; 0 = dangling
	weight    []int32             // selected-parent subtree size
	children  [][]appendmem.MsgID // by parent id+1-off, over all parent edges
	treeKids  [][]appendmem.MsgID // by parent id+1-off, selected-parent tree
	ghostBest []appendmem.MsgID   // by parent id+1-off: earliest heaviest tree kid; None when childless
	parent    []appendmem.MsgID   // selected parent, cached to avoid Message lookups on hot walks

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

	// Epoch-stamped scratch for the traversal helpers: a slot is "visited"
	// in the current traversal iff its stamp equals the current epoch, so
	// clearing between traversals is a counter increment, not an O(V) wipe.
	visited      []uint64
	visitEpoch   uint64
	ordered      []uint64
	orderedEpoch uint64
	dfsStack     []appendmem.MsgID
	epochBuf     []appendmem.MsgID
	orderBuf     []appendmem.MsgID // AppendOrderedValues' linearization prefix
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
	d := &Dag{
		view:        view,
		inDag:       make([]bool, 0, view.Size()),
		depth:       make([]int32, 0, view.Size()),
		treeDepth:   make([]int32, 0, view.Size()),
		weight:      make([]int32, 0, view.Size()),
		children:    make([][]appendmem.MsgID, 1, view.Size()+1),
		treeKids:    make([][]appendmem.MsgID, 1, view.Size()+1),
		ghostBest:   make([]appendmem.MsgID, 1, view.Size()+1),
		parent:      make([]appendmem.MsgID, 0, view.Size()),
		bestTreeTip: appendmem.None,
	}
	d.ghostBest[0] = appendmem.None
	d.extend(view.Size())
	return d
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
	d.parents = make([][]appendmem.MsgID, d.built-d.off)
	d.value = make([]int64, d.built-d.off)
	d.authorSeq = make([]int64, d.built-d.off)
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
		d.children = append(d.children, nil)
		d.treeKids = append(d.treeKids, nil)
		d.ghostBest = append(d.ghostBest, appendmem.None)
		d.parent = append(d.parent, appendmem.None)
		if d.tracking {
			d.parents = append(d.parents, nil)
			d.value = append(d.value, 0)
			d.authorSeq = append(d.authorSeq, 0)
		}
		d.visited = append(d.visited, 0)
		d.ordered = append(d.ordered, 0)
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
		// Child edges (one per distinct parent) and tip maintenance: every
		// referenced parent stops being childless, the new block becomes the
		// (largest-id) tip.
		if len(msg.Parents) == 0 {
			if d.off == 0 {
				d.children[0] = append(d.children[0], id)
			} // else: a fresh root after Compact — no genesis slot remains
		} else {
			for i, p := range msg.Parents {
				dup := false
				for _, q := range msg.Parents[:i] {
					if q == p {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				if ci := int(p) + 1 - d.off; ci >= 0 {
					d.children[ci] = append(d.children[ci], id)
				}
				if p != appendmem.None {
					d.dropTip(p)
				}
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
		if si := int(sp) + 1 - d.off; si >= 0 {
			d.treeKids[si] = append(d.treeKids[si], id)
		}
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

// kids returns the child list slot for id (None — or the compaction
// anchor — maps to slot 0); nil when id is outside the indexed range.
func (d *Dag) kids(of [][]appendmem.MsgID, id appendmem.MsgID) []appendmem.MsgID {
	slot := int(id) + 1 - d.off
	if slot < 0 || slot >= len(of) {
		return nil
	}
	return of[slot]
}

// Children returns the blocks that list id among their parents (None for
// genesis children), in arrival order.
func (d *Dag) Children(id appendmem.MsgID) []appendmem.MsgID {
	return append([]appendmem.MsgID(nil), d.kids(d.children, id)...)
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
	return d.linearize(nil, pivot, math.MaxInt)
}

// linearize appends the first limit blocks of Linearize(pivot) to dst. It
// stops after the first epoch that reaches the limit: an epoch is sorted
// as a whole, so the order up to its end is final whatever later pivot
// blocks add.
func (d *Dag) linearize(dst, pivot []appendmem.MsgID, limit int) []appendmem.MsgID {
	start := len(dst)
	d.orderedEpoch++
	oe := d.orderedEpoch
	for _, pb := range pivot {
		if len(dst)-start >= limit {
			break
		}
		// Epoch members: ancestors of pb not ordered by earlier pivot
		// blocks. The DFS stops at already-ordered blocks, so each block
		// is visited once across the whole linearization (amortized
		// O(V+E) instead of one full past-cone walk per pivot block).
		// Frozen parents (below the watermark) are by construction inside
		// the anchor's past cone, i.e. ordered by the frozen prefix, so the
		// DFS treats them exactly like earlier-epoch blocks and stops.
		d.visitEpoch++
		ve := d.visitEpoch
		d.visited[int(pb)-d.off] = ve
		epoch := d.epochBuf[:0]
		stack := d.dfsStack[:0]
		for _, p := range d.parentsOf(pb) {
			if p != appendmem.None && int(p) >= d.off && d.ordered[int(p)-d.off] != oe && d.visited[int(p)-d.off] != ve {
				d.visited[int(p)-d.off] = ve
				stack = append(stack, p)
			}
		}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			epoch = append(epoch, cur)
			for _, p := range d.parentsOf(cur) {
				if p != appendmem.None && int(p) >= d.off && d.ordered[int(p)-d.off] != oe && d.visited[int(p)-d.off] != ve {
					d.visited[int(p)-d.off] = ve
					stack = append(stack, p)
				}
			}
		}
		d.dfsStack = stack
		// (depth, author, seq) is unique per block, so any sort yields the
		// same order.
		slices.SortFunc(epoch, func(a, b appendmem.MsgID) int {
			if c := cmp.Compare(d.depth[int(a)-d.off], d.depth[int(b)-d.off]); c != 0 {
				return c
			}
			// authorSeq packs (author, seq) so one compare is the
			// lexicographic tie-break.
			return cmp.Compare(d.authorSeqOf(a), d.authorSeqOf(b))
		})
		for _, id := range epoch {
			d.ordered[int(id)-d.off] = oe
			dst = append(dst, id)
		}
		d.epochBuf = epoch[:0]
		d.ordered[int(pb)-d.off] = oe
		dst = append(dst, pb)
	}
	if len(dst)-start > limit {
		dst = dst[:start+limit]
	}
	return dst
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
// the extended slice. The linearization stops once k values are covered
// and reuses a buffer owned by the Dag, so the call allocates nothing
// when dst has room.
func (d *Dag) AppendOrderedValues(dst []int64, pivot []appendmem.MsgID, k int) []int64 {
	if k <= len(d.frozenVals) {
		return append(dst, d.frozenVals[:k]...)
	}
	d.orderBuf = d.linearize(d.orderBuf[:0], pivot, k-len(d.frozenVals))
	dst = append(dst, d.frozenVals...)
	for _, id := range d.orderBuf {
		dst = append(dst, d.valueOf(id))
	}
	return dst
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
	// (a fresh slice: Linearize reuses the shared scratch buffers).
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
	d.orderedEpoch++
	oe := d.orderedEpoch
	d.ordered[int(cand)-d.off] = oe
	stack := append(d.dfsStack[:0], cand)
	covered := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range d.parents[int(cur)-d.off] {
			if p == appendmem.None || int(p) < d.off {
				continue
			}
			if d.ordered[int(p)-d.off] != oe {
				d.ordered[int(p)-d.off] = oe
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
	// Freeze: linearize the pivot segment ending at the candidate. By (b)
	// this orders exactly the live blocks at or below it, extending
	// frozenVals by the same values the full index's linearization holds
	// at those positions.
	order := d.Linearize(seg)
	if len(order) != live {
		panic(fmt.Sprintf("dag: Compact froze %d blocks, expected %d", len(order), live))
	}
	for _, id := range order {
		d.frozenVals = append(d.frozenVals, d.value[int(id)-d.off])
	}
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
	d.ordered = d.ordered[:copy(d.ordered, d.ordered[shift:])]
	d.children = d.children[:copy(d.children, d.children[shift:])]
	d.treeKids = d.treeKids[:copy(d.treeKids, d.treeKids[shift:])]
	d.ghostBest = d.ghostBest[:copy(d.ghostBest, d.ghostBest[shift:])]
	d.off = newOff
	return d.off
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
	d *Dag
}

// NewCached returns an empty handle; the first At builds the index.
func NewCached() *Cached { return &Cached{} }

// At returns the index of view, extending the previously returned index
// when view is a forward read of the same memory. The returned Dag is
// owned by the handle and is invalidated (re-pointed at a larger view) by
// the next At call.
func (c *Cached) At(view appendmem.View) *Dag {
	if c.d != nil && c.d.view.SubsetOf(view) {
		c.d.Extend(view)
		return c.d
	}
	c.d = Build(view)
	return c.d
}

// Extends reports whether At(view) extends the held index instead of
// rebuilding it: before the first At, or when the held index's view is a
// prefix of view.
func (c *Cached) Extends(view appendmem.View) bool {
	return c.d == nil || c.d.view.SubsetOf(view)
}

// Floor returns the smallest id the handle's future extensions or appends
// can reach: the minimum of the built prefix (extensions read from there)
// and the tip floor (parents draw from the tips). 0 before the first At.
func (c *Cached) Floor() int {
	if c.d == nil {
		return 0
	}
	f := c.d.built
	if tf := c.d.TipFloor(); tf >= 0 && int(tf) < f {
		f = int(tf)
	}
	return f
}

// CompactTo forwards Compact(reqW) to the held index and returns the
// watermark achieved; 0 when no index exists yet.
func (c *Cached) CompactTo(reqW int) int {
	if c.d == nil {
		return 0
	}
	return c.d.Compact(reqW)
}
