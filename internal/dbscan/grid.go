package dbscan

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/model"
)

// grid is a uniform spatial index over the input points with cell side eps.
// All points within distance eps of a point p lie in the 3×3 block of cells
// around p's cell.
//
// The index is a flat array of (packed cell key, point index) entries
// sorted by key — no hash map. Cell coordinates pack into one ordered
// uint64 (offset-encoded so negative coordinates sort correctly), which
// makes the three cells of one grid row a single contiguous key range: a
// neighbourhood query is three binary searches plus three linear scans
// over adjacent memory. Compared to the previous map[cellKey][]int this
// removes all hashing from the query path and all per-cell slice growth
// from construction — the two biggest CPU and allocation sinks the k/2-hop
// profile showed, since every re-clustering builds a fresh index.
//
// When the grid cannot be exact — the radius is not gridEps or a
// coordinate is not cellable — the index holds no entries and every query
// scans all points.
type grid struct {
	objs     []model.ObjPos
	eps      float64
	allPairs bool
	entries  []gridEntry
}

// gridEntry locates one point in cell-key order.
type gridEntry struct {
	key uint64
	i   int32
}

// packKey builds the ordered cell key: biased cx in the high 32 bits,
// biased cy in the low. Lexicographic (cx, cy) order equals numeric key
// order, so cells (cx, cy-1..cy+1) occupy the contiguous key range
// [packKey(cx,cy-1), packKey(cx,cy+1)].
func packKey(cx, cy int32) uint64 {
	return uint64(uint32(cx)^0x80000000)<<32 | uint64(uint32(cy)^0x80000000)
}

func newGrid(objs []model.ObjPos, eps float64) *grid {
	g := &grid{objs: objs, eps: eps, allPairs: true}
	if !gridEps(eps) {
		return g
	}
	entries := make([]gridEntry, len(objs))
	for i, p := range objs {
		if !cellable(p.X, eps) || !cellable(p.Y, eps) {
			return g
		}
		cx, cy := g.cellOf(p.X, p.Y)
		entries[i] = gridEntry{key: packKey(cx, cy), i: int32(i)}
	}
	slices.SortFunc(entries, func(a, b gridEntry) int { return cmp.Compare(a.key, b.key) })
	g.allPairs, g.entries = false, entries
	return g
}

// gridEps reports whether eps can be a grid's cell side: finite and
// positive, with eps² finite too (an overflowed eps² would admit points
// many cells apart).
func gridEps(eps float64) bool { return eps > 0 && !math.IsInf(eps*eps, 1) }

// cellable reports whether v lands in a cell whose coordinate fits int32.
// Beyond that the float→int32 conversion in cellOf is implementation-
// defined and the "neighbours live in the 3×3 block" invariant breaks
// (astronomic coordinates, NaN, Inf). NaN fails both comparisons.
func cellable(v, eps float64) bool {
	c := math.Floor(v / eps)
	return c >= math.MinInt32 && c <= math.MaxInt32
}

func (g *grid) cellOf(x, y float64) (cx, cy int32) {
	return int32(math.Floor(x / g.eps)), int32(math.Floor(y / g.eps))
}

// neighbors appends to dst the indices of all points within eps of point i
// (including i itself) and returns the extended slice.
func (g *grid) neighbors(i int, epsSq float64, dst []int) []int {
	p := g.objs[i]
	if g.allPairs {
		for j, q := range g.objs {
			if model.DistSq(p, q) <= epsSq {
				dst = append(dst, j)
			}
		}
		return dst
	}
	cx, cy := g.cellOf(p.X, p.Y)
	// Clamp the 3×3 block at the int32 extremes: a wrapped coordinate would
	// either skip cells that do hold points (cy) or scan a far-away column
	// (cx). Cells beyond the extreme cannot exist, so clamping only narrows
	// the block to the cells that do.
	cyLo, cyHi := cy-1, cy+1
	if cy == math.MinInt32 {
		cyLo = cy
	}
	if cy == math.MaxInt32 {
		cyHi = cy
	}
	e := g.entries
	for dx := int32(-1); dx <= 1; dx++ {
		if (dx < 0 && cx == math.MinInt32) || (dx > 0 && cx == math.MaxInt32) {
			continue // no column beyond the extreme
		}
		lo := packKey(cx+dx, cyLo)
		hi := packKey(cx+dx, cyHi)
		// First entry with key ≥ lo (manual binary search keeps this
		// allocation-free and inlinable).
		a, b := 0, len(e)
		for a < b {
			mid := int(uint(a+b) >> 1)
			if e[mid].key < lo {
				a = mid + 1
			} else {
				b = mid
			}
		}
		for ; a < len(e) && e[a].key <= hi; a++ {
			j := int(e[a].i)
			if model.DistSq(p, g.objs[j]) <= epsSq {
				dst = append(dst, j)
			}
		}
	}
	return dst
}
