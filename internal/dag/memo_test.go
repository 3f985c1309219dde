package dag

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/appendmem"
	"repro/internal/xrand"
)

// treePath returns the selected-parent path from the index's root — the
// genesis, or the anchor after a Compact — down to id, oldest first, and
// whether it reaches that root (a fresh genesis child appended after a
// Compact does not).
func treePath(d *Dag, id appendmem.MsgID) ([]appendmem.MsgID, bool) {
	var path []appendmem.MsgID
	for int(id) >= d.off {
		path = append(path, id)
		id = d.parent[int(id)-d.off]
	}
	slices.Reverse(path)
	return path, int(id) == d.off-1
}

// orderingPivots draws the pivots of one step, in random order: both
// rules' pivots, a truncated GHOST pivot and a forked one (the tree path
// to a random live block), so consecutive calls keep diverging from the
// memo at random depths. Each pivot is live (after a Compact, the segment
// above the anchor).
func orderingPivots(rng *xrand.PCG, d *Dag) [][]appendmem.MsgID {
	g := d.GhostPivot()
	pivots := [][]appendmem.MsgID{g, d.LongestPivot(), g[:rng.Intn(len(g)+1)]}
	for try := 0; try < 4 && d.built > d.off; try++ {
		id := appendmem.MsgID(d.off + rng.Intn(d.built-d.off))
		if !d.inDag[int(id)-d.off] {
			continue
		}
		if path, rooted := treePath(d, id); rooted {
			pivots = append(pivots, path)
			break
		}
	}
	rng.Shuffle(len(pivots), func(i, j int) { pivots[i], pivots[j] = pivots[j], pivots[i] })
	return pivots
}

// TestDifferentialMemoizedOrdering: one index per history, its ordering
// memo reused by every call, must answer each prefix-bounded ordering
// exactly like a fresh Build of the same view ordered by the from-scratch
// reference. The calls alternate GHOST, longest, truncated and forked
// pivots at limits 1, k and MaxInt, so the memo is resumed, truncated at
// every depth and re-grown. The index runs plain, compacted as far as the
// reachability bound allows (its frozen prefix then leads every answer),
// and recycled: reset after a compacted run over another history.
func TestDifferentialMemoizedOrdering(t *testing.T) {
	histories := []func(*xrand.PCG, int) *appendmem.Memory{adversarialHistory, recentDagHistory}
	const k = 7
	frozen := 0 // compacted steps with a frozen prefix
	for hi, history := range histories {
		for seed := uint64(1); seed <= 6; seed++ {
			for _, mode := range []struct{ compact, recycle bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
				name := fmt.Sprintf("history%d/seed%d/compact=%v/recycle=%v", hi, seed, mode.compact, mode.recycle)
				m := history(xrand.New(seed, 23), 90)
				safe := safeWatermarks(m)
				c := NewCached()
				if mode.recycle {
					other := recentDagHistory(xrand.New(seed, 24), 60)
					otherSafe := safeWatermarks(other)
					for s := 1; s <= other.Len(); s++ {
						d := c.At(other.ViewAt(s))
						d.Compact(otherSafe[s])
						d.OrderedValues(d.GhostPivot(), other.Len())
					}
					c.Reset()
					if c.Live() || c.Floor() != 0 {
						t.Fatalf("%s: a reset handle reports live=%v floor=%d", name, c.Live(), c.Floor())
					}
				}
				rng := xrand.New(seed, 25)
				for s := 0; s <= m.Len(); s++ {
					view := m.ViewAt(s)
					d := c.At(view)
					if mode.compact {
						d.Compact(safe[s])
					}
					ref := Build(view)
					if mode.recycle && !mode.compact {
						assertSameDag(t, s, d, ref)
					}
					fz := len(d.frozenVals)
					if fz > 0 && !mode.recycle {
						frozen++
					}
					for _, pivot := range orderingPivots(rng, d) {
						// The reference orders the whole pivot: the frozen
						// prefix's path down to the live segment's tip.
						var full []appendmem.MsgID
						if tip := d.off - 1; len(pivot) > 0 || tip >= 0 {
							if len(pivot) > 0 {
								tip = int(pivot[len(pivot)-1])
							}
							full, _ = treePath(ref, appendmem.MsgID(tip))
						}
						for _, limit := range []int{1, k, math.MaxInt} {
							refLimit := limit
							if limit < math.MaxInt {
								refLimit += fz
							}
							want := ref.linearize(nil, full, refLimit)
							if len(want) < fz {
								t.Fatalf("%s prefix %d: reference ordering %d blocks, frozen %d", name, s, len(want), fz)
							}
							if got := d.AppendLinearize(nil, pivot, limit); !equalIDs(got, want[fz:]) {
								t.Fatalf("%s prefix %d: pivot %v limit %d: ordering %v, want %v", name, s, pivot, limit, got, want[fz:])
							}
							var wantVals []int64
							for _, id := range want {
								wantVals = append(wantVals, ref.valueOf(id))
							}
							if got := d.AppendOrderedValues(nil, pivot, refLimit); !slices.Equal(got, wantVals) {
								t.Fatalf("%s prefix %d: pivot %v: values(%d) %v, want %v", name, s, pivot, refLimit, got, wantVals)
							}
						}
					}
				}
			}
		}
	}
	if frozen == 0 {
		t.Fatal("no prefix ever froze; the compacted runs are vacuous")
	}
}

// TestCachedResetRebuildsInPlace: a handle reset after a windowed run
// keeps its index's storage, and the rebuilt index answers like Build —
// with compaction, its caches and its memo gone.
func TestCachedResetRebuildsInPlace(t *testing.T) {
	m := recentDagHistory(xrand.New(8, 8), 80)
	safe := safeWatermarks(m)
	c := NewCached()
	for s := 1; s <= m.Len(); s++ {
		d := c.At(m.ViewAt(s))
		d.Compact(safe[s])
		d.OrderedValues(d.LongestPivot(), s)
	}
	held := c.At(m.Read())
	if held.Watermark() == 0 {
		t.Fatal("the windowed run never compacted; the reset is untested")
	}
	c.Reset()
	other := adversarialHistory(xrand.New(9, 9), 70)
	for s := 0; s <= other.Len(); s += 7 {
		d := c.At(other.ViewAt(s))
		if d != held {
			t.Fatal("the reset handle allocated a new index instead of rebuilding in place")
		}
		if d.tracking || d.Watermark() != 0 || len(d.frozenVals) != 0 {
			t.Fatalf("prefix %d: the rebuilt index kept compaction state", s)
		}
		assertSameDag(t, s, d, Build(other.ViewAt(s)))
	}
}
