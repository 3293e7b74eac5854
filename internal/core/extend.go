package core

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/pool"
)

// extendAll grows the maximal spanning convoys to their true starts and
// ends (paper §4.5, Algorithm 3): first to the right, then to the left.
// When cfg.ReExtend is set, the two passes repeat until a fixpoint, because
// an object set that shrank while extending left may be further extensible
// to the right (and vice versa) — see DESIGN.md §3.
func (mi *miner) extendAll(merged []model.Convoy, rep *Report) ([]model.Convoy, error) {
	cur := merged
	// extend returns its convoys in canonical order, so the fixpoint test is
	// a linear element-wise comparison. prev starts nil: an empty first
	// pass already equals it and stops after one iteration.
	var prev []model.Convoy
	for iter := 0; ; iter++ {
		start := time.Now()
		right, err := mi.extend(cur, +1, &rep.ExtendRightCPU)
		if err != nil {
			return nil, err
		}
		rep.ExtendRight += time.Since(start)

		start = time.Now()
		both, err := mi.extend(right, -1, &rep.ExtendLeftCPU)
		if err != nil {
			return nil, err
		}
		rep.ExtendLeft += time.Since(start)
		cur = both

		if !mi.cfg.ReExtend || iter+1 >= mi.cfg.MaxReExtend {
			return cur, nil
		}
		if slices.EqualFunc(cur, prev, model.Convoy.Equal) {
			return cur, nil
		}
		prev = cur
	}
}

// extend grows every convoy in the given direction (+1 = right, -1 = left).
// Each convoy extends independently, so the walks fan out over the worker
// pool; each task collects its closed convoys in a local slice and the
// maximality merge replays them in task-index order, which makes the result
// identical to the sequential walk for every worker count (the maximality
// filter is also order-confluent, but replaying in order keeps even the
// internal set states bit-for-bit equal). Summed task time lands in cpu.
func (mi *miner) extend(convoys []model.Convoy, dir int32, cpu *time.Duration) ([]model.Convoy, error) {
	closed := make([][]model.Convoy, len(convoys))
	var taskCPU atomic.Int64
	err := pool.ForEach(mi.workers, len(convoys), func(i int) error {
		t0 := time.Now()
		defer func() { taskCPU.Add(int64(time.Since(t0))) }()
		cs, err := mi.extendOne(convoys[i], dir)
		if err != nil {
			return err
		}
		closed[i] = cs
		return nil
	})
	if err != nil {
		return nil, err
	}
	*cpu += time.Duration(taskCPU.Load())
	out := model.NewConvoySet()
	for _, cs := range closed {
		out.UpdateAll(cs)
	}
	return out.Sorted(), nil
}

// extCand is one in-flight extension candidate: the convoy plus its dense
// encoding under the walk's interner. The bits exist so the per-step
// domination pruning can subset-test word-parallel; they are only valid
// within the step that created them (the backing buffers are recycled from
// a bitset.Pool each step).
type extCand struct {
	v    model.Convoy
	bits *bitset.Bits
}

// extendOne walks one convoy one timestamp at a time in the given
// direction, re-clustering the convoy's objects at each next timestamp. A
// convoy that cannot continue intact is emitted as closed in that
// direction; clusters that survive (possibly smaller) continue. The closed
// convoys are returned in discovery order.
//
// Every object set the walk ever touches is a subset of the starting
// convoy's objects (re-clustering only shrinks), so the walk interns that
// object set once and runs its set algebra dense: each re-clustered group
// is encoded into a pooled bitset, and the domination filter compares
// candidates by word-parallel subset tests instead of sorted-slice merges.
func (mi *miner) extendOne(vsp model.Convoy, dir int32) ([]model.Convoy, error) {
	in := model.Intern(vsp.Objs)
	var bufs bitset.Pool
	var out []model.Convoy
	prev := []extCand{{v: vsp, bits: in.Encode(vsp.Objs, nil)}}
	t := edge(vsp, dir) + dir
	for len(prev) > 0 && t >= mi.ts && t <= mi.te {
		var next []extCand
		bufs.Reset() // prev's bits are dead: dominate only compares within one step
		for _, vc := range prev {
			clusters, err := mi.recluster(t, vc.v.Objs)
			if err != nil {
				return nil, err
			}
			if len(clusters) == 0 {
				out = append(out, vc.v) // closed in this direction
				continue
			}
			survived := false
			for _, c := range clusters {
				w := vc.v
				w.Objs = c
				if dir > 0 {
					w.End = t
				} else {
					w.Start = t
				}
				next = append(next, extCand{v: w, bits: in.Encode(c, bufs.Get(in.Len()))})
				if len(c) == len(vc.v.Objs) {
					survived = true
				}
			}
			if !survived {
				// v split or shrank: in its current shape it is closed.
				out = append(out, vc.v)
			}
		}
		prev = extendDominate(next, dir)
		t += dir
	}
	// Hit the dataset boundary: whatever is still alive is closed.
	for _, vc := range prev {
		out = append(out, vc.v)
	}
	return out, nil
}

func edge(v model.Convoy, dir int32) int32 {
	if dir > 0 {
		return v.End
	}
	return v.Start
}

// extendDominate prunes, among in-flight extension candidates that share
// the moving edge, those whose object set is a subset of another candidate
// with an equal-or-wider fixed edge. All candidates carry dense encodings
// under the same walk interner, so the subset tests are word-parallel.
func extendDominate(cands []extCand, dir int32) []extCand {
	fixedLE := func(a, b extCand) bool { // fixed edge of a at least as wide as b's
		if dir > 0 {
			return a.v.Start <= b.v.Start
		}
		return a.v.End >= b.v.End
	}
	var out []extCand
	for _, c := range cands {
		dominated := false
		for j := 0; j < len(out); j++ {
			switch {
			case fixedLE(out[j], c) && c.bits.SubsetOf(out[j].bits):
				dominated = true
			case fixedLE(c, out[j]) && out[j].bits.SubsetOf(c.bits):
				out[j] = out[len(out)-1]
				out = out[:len(out)-1]
				j--
			}
			if dominated {
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}
