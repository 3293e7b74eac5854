// Package dbscan implements density-based clustering of 2-D object
// positions (Ester et al., KDD'96) with a uniform-grid spatial index, which
// is the clustering substrate every convoy miner in this repository builds
// on.
//
// Convoy semantics (paper §3.1): an (m,eps)-cluster is a maximal set of
// density-connected objects of size ≥ m. Running DBSCAN with minPts = m and
// radius eps yields exactly those clusters; noise points belong to no
// cluster. Border points are assigned to the first cluster that reaches
// them, matching the reference implementations the paper compares against.
//
// The grid index buckets points into eps×eps cells, so an eps-neighbourhood
// query inspects at most the 3×3 surrounding cells: expected O(1) per query
// for non-degenerate data, O(n) per clustering run, instead of the O(n²) of
// index-free DBSCAN that the paper identifies as a bottleneck. Inputs of at
// most 64 points skip the index: k/2-hop re-clusters each candidate's own
// few objects hundreds of thousands of times per mine, and at that size a
// bit-mask adjacency matrix is several times cheaper than building a grid
// (clusterTiny).
//
// Every path answers the same neighbour predicate, model.DistSq(p, q) ≤
// eps², so the index is never part of the semantics. Where the grid cannot
// be exact — a degenerate radius (≤ 0, NaN, Inf, or eps² overflowing) or a
// coordinate whose cell index leaves int32 — neighbourhoods come from an
// exact all-pairs scan instead.
package dbscan

import (
	"math/bits"
	"slices"

	"repro/internal/model"
)

const (
	unvisited = -2 // not yet processed
	noise     = -1 // processed, not (yet) in any cluster
)

// Cluster runs DBSCAN over objs and returns the (minPts,eps)-clusters as
// sorted object sets in deterministic order. Objects that end up as noise
// are omitted. The input slice is not modified.
//
// Cluster is goroutine-safe: it holds no package state and allocates its
// index, labels and buffers per call, so independent calls may run
// concurrently (the parallel k/2-hop phases rely on this). Concurrent
// calls must not mutate a shared input slice while a call is in flight.
func Cluster(objs []model.ObjPos, eps float64, minPts int) []model.ObjSet {
	n := len(objs)
	if n == 0 || minPts <= 0 || n < minPts {
		return nil
	}
	if n <= tinyMax {
		return clusterTiny(objs, eps, minPts)
	}
	return clusterIndexed(objs, eps, minPts)
}

// clusterIndexed is Cluster over a spatial index: the grid, or exact
// all-pairs neighbourhoods where the grid cannot be exact. It accepts any
// n; Cluster routes only inputs above tinyMax here.
func clusterIndexed(objs []model.ObjPos, eps float64, minPts int) []model.ObjSet {
	n := len(objs)
	idx := newGrid(objs, eps)
	labels := make([]int32, n) // int32 halves the per-call zeroing cost
	for i := range labels {
		labels[i] = unvisited
	}
	epsSq := eps * eps

	var clusters []model.ObjSet
	var frontier []int // BFS queue, reused across seeds
	var nbuf []int     // neighbour buffer, reused across queries

	for i := 0; i < n; i++ {
		if labels[i] != unvisited {
			continue
		}
		nbuf = idx.neighbors(i, epsSq, nbuf[:0])
		if len(nbuf) < minPts {
			labels[i] = noise
			continue
		}
		// i is a core point: start a new cluster and expand it BFS-style.
		cid := int32(len(clusters))
		labels[i] = cid
		cluster := model.ObjSet{objs[i].OID}
		frontier = frontier[:0]
		for _, j := range nbuf {
			if j != i {
				frontier = append(frontier, j)
			}
		}
		for len(frontier) > 0 {
			j := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			switch labels[j] {
			case unvisited:
				labels[j] = cid
				cluster = append(cluster, objs[j].OID)
				nbuf = idx.neighbors(j, epsSq, nbuf[:0])
				if len(nbuf) >= minPts {
					// j is core: its whole neighbourhood joins the frontier.
					for _, q := range nbuf {
						if labels[q] == unvisited || labels[q] == noise {
							frontier = append(frontier, q)
						}
					}
				}
			case noise:
				// Border point previously dismissed as noise.
				labels[j] = cid
				cluster = append(cluster, objs[j].OID)
			}
		}
		if len(cluster) >= minPts {
			// Each point index joins a cluster exactly once (the labels
			// array guards), so after an in-place sort only duplicate OIDs —
			// distinct points sharing an id, which the snapshot contract
			// discourages but Cluster's API does not forbid — can break the
			// ObjSet invariant. The common case is a branch-predicted scan;
			// the dedup pass runs only when a duplicate actually exists.
			slices.Sort(cluster)
			for j := 1; j < len(cluster); j++ {
				if cluster[j] == cluster[j-1] {
					cluster = slices.Compact(cluster)
					break
				}
			}
			clusters = append(clusters, cluster)
		} else {
			// The seed is core, but earlier clusters already claimed enough
			// of its neighbours that fewer than minPts points remain (a
			// stolen border). The points go back to noise: none of them is
			// expanded again, and no later cluster can reach them except
			// as a border.
			for k := range labels {
				if labels[k] == cid {
					labels[k] = noise
				}
			}
		}
	}
	return clusters
}

// tinyMax is the largest input Cluster answers with clusterTiny: one bit
// per point in a uint64 adjacency row.
const tinyMax = 64

// clusterTiny is Cluster for 1 ≤ n ≤ tinyMax points. It fills a bit-mask
// adjacency matrix in one pass over the pairs, with the indexed path's
// predicate (so it agrees with it for every eps, degenerate ones
// included), then runs clusterIndexed's control flow on masks:
// seeds in input order, core means at least minPts neighbours (itself
// included), a point claimed by an earlier cluster stays there, and points
// that were noise join as borders without being expanded. A cluster's
// membership is the closure of its seed under "an expanded point adds its
// unclaimed neighbours", so the order the frontier is drained in does not
// matter, and a cluster left below minPts returns its points to noise
// exactly as clusterIndexed does. The only allocations are the output.
func clusterTiny(objs []model.ObjPos, eps float64, minPts int) []model.ObjSet {
	n := len(objs)
	epsSq := eps * eps
	var adj [tinyMax]uint64
	for i := 0; i < n; i++ {
		p := objs[i]
		// A point is its own neighbour unless a coordinate is NaN or Inf.
		if model.DistSq(p, p) <= epsSq {
			adj[i] |= 1 << i
		}
		for j := i + 1; j < n; j++ {
			if model.DistSq(p, objs[j]) <= epsSq {
				adj[i] |= 1 << j
				adj[j] |= 1 << i
			}
		}
	}
	var core uint64
	for i := 0; i < n; i++ {
		if bits.OnesCount64(adj[i]) >= minPts {
			core |= 1 << i
		}
	}

	unvisited := uint64(1)<<n - 1 // n = 64 wraps to all ones
	var claimed uint64            // members of kept clusters
	var kept [tinyMax]uint64
	nk := 0
	for i := 0; i < n; i++ {
		bit := uint64(1) << i
		if unvisited&bit == 0 {
			continue
		}
		if core&bit == 0 {
			unvisited &^= bit // noise
			continue
		}
		expandable := unvisited & core
		members, todo := bit, bit
		for todo != 0 {
			j := bits.TrailingZeros64(todo)
			todo &= todo - 1
			reach := adj[j] &^ claimed &^ members
			members |= reach
			todo |= reach & expandable
		}
		unvisited &^= members
		if bits.OnesCount64(members) >= minPts {
			claimed |= members
			kept[nk] = members
			nk++
		}
		// Otherwise a stolen border: the members stay noise.
	}
	if nk == 0 {
		return nil
	}

	// Clusters are disjoint, so one backing array holds them all; each
	// cluster's capacity ends at its own region.
	buf := make([]int32, 0, bits.OnesCount64(claimed))
	clusters := make([]model.ObjSet, nk)
	for c, m := range kept[:nk] {
		lo := len(buf)
		for ; m != 0; m &= m - 1 {
			buf = append(buf, objs[bits.TrailingZeros64(m)].OID)
		}
		cl := model.ObjSet(buf[lo:len(buf):len(buf)])
		slices.Sort(cl)
		for j := 1; j < len(cl); j++ {
			if cl[j] == cl[j-1] {
				cl = slices.Compact(cl)
				break
			}
		}
		clusters[c] = cl
	}
	return clusters
}

// ClusterContaining returns the members of each cluster as index slices into
// objs instead of OIDs. Used by tests that verify density-connectivity
// directly on positions.
func ClusterContaining(objs []model.ObjPos, eps float64, minPts int) [][]int {
	n := len(objs)
	if n == 0 || minPts <= 0 || n < minPts {
		return nil
	}
	clusters := Cluster(objs, eps, minPts)
	byOID := make(map[int32]int, n)
	for i, p := range objs {
		byOID[p.OID] = i
	}
	out := make([][]int, len(clusters))
	for ci, c := range clusters {
		for _, oid := range c {
			out[ci] = append(out[ci], byOID[oid])
		}
	}
	return out
}
