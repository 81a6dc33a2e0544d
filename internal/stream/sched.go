package stream

import (
	"slices"
	"strconv"

	"clientmap/internal/randx"
)

// TaskState is the scheduler's per-probe-task memory: when the task was
// last probed, when it last hit, and when its outcome last flipped. All
// hours are -1 before the first observation.
type TaskState struct {
	LastProbe int32
	LastHit   int32
	FlipHour  int32
	PrevHit   bool
}

// Priority ladder classes, in selection order. The ladder spends the
// hourly probe budget where a probe is informative: a task whose outcome
// just changed is probed again to confirm the flip, a task whose
// evidence is about to age out is refreshed before the map loses it, a
// task with no live evidence (never observed, or decayed back into the
// candidate pool) is explored, and a stable task — recently confirmed,
// nowhere near its TTL — is rotated through last.
const (
	classFlipped uint8 = iota
	classDecaying
	classCold
	classStable
	numClasses

	// classSkipped marks a boundary-class task the budget does not reach.
	classSkipped uint8 = 0xff
)

// classify places one task on the ladder at hour h.
func classify(ts TaskState, h int32) uint8 {
	if ts.LastProbe < 0 {
		return classCold // never probed
	}
	if ts.FlipHour >= 0 && h-ts.FlipHour <= DefaultFlipWindow {
		return classFlipped
	}
	cold := ts.LastHit < 0 || ts.LastHit <= h-DefaultTTLHours
	if cold {
		return classCold
	}
	if ts.LastHit <= h-(DefaultTTLHours-DefaultDecayMargin) {
		return classDecaying
	}
	return classStable
}

// schedule selects this hour's probe tasks: per non-withdrawn PoP, up to
// budget tasks in ladder order, rotated within each class by a
// seed-keyed hash of (hour, PoP, task) so the stable and cold pools
// cycle instead of starving their tails. The selection is a pure
// function of the pre-hour task states and the withdrawn set, which is
// how a resumed stream recomputes exactly the selection the original
// stream probed. Returned index lists are sorted ascending — the order
// Subset preserves and the probe engine's determinism keys on.
//
// The selection is the first budget tasks in (class, rot, task) order,
// found without sorting them: whole classes are taken while they fit,
// only the class the budget ends in (the boundary) is hashed and
// ordered by (rot, task), and the picks are emitted by one ascending
// scan.
func (s *State) schedule(h int32) (sel [][]int, scheduled int) {
	sel = make([][]int, len(s.Tasks))
	var cls []uint8
	var edge []rotTask
	var kb [64]byte
	for pi := range s.Tasks {
		pop := s.PoPs[pi]
		if s.Withdrawn[pop] {
			continue
		}
		n := len(s.Tasks[pi])
		if n == 0 {
			continue
		}
		budget := int(DefaultBudgetFrac * float64(n))
		if budget < 1 {
			budget = 1
		}
		if budget > n {
			budget = n
		}
		cls = slices.Grow(cls[:0], n)[:n]
		var count [numClasses]int
		for ti := range s.Tasks[pi] {
			c := classify(s.Tasks[pi][ti], h)
			cls[ti] = c
			count[c]++
		}
		// Classes below the boundary fit whole; the boundary class gives
		// the rest of the budget.
		boundary, rest := uint8(0), budget
		for rest > count[boundary] {
			rest -= count[boundary]
			boundary++
		}
		if rest < count[boundary] {
			// Rotation key "stream/sched/<h>/<pop>/<ti>": the head is folded
			// once per PoP (see randx.KeyState).
			key := append(kb[:0], "stream/sched/"...)
			key = strconv.AppendInt(key, int64(h), 10)
			key = append(key, '/')
			key = append(key, pop...)
			key = append(key, '/')
			head := s.Cfg.Seed.KeyState(key)
			edge = edge[:0]
			for ti, c := range cls {
				if c == boundary {
					edge = append(edge, rotTask{rot: rotate(head, ti), ti: ti})
				}
			}
			selectLeast(edge, rest)
			for _, e := range edge[rest:] {
				cls[e.ti] = classSkipped
			}
		}
		picked := make([]int, 0, budget)
		for ti, c := range cls {
			if c <= boundary {
				picked = append(picked, ti)
			}
		}
		sel[pi] = picked
		scheduled += len(picked)
	}
	return sel, scheduled
}

// rotate is task ti's rotation hash, extending its PoP's key head by the
// task index. TestScheduleMatchesOracle swaps in a coarser hash to make
// rotation ties common.
var rotate = func(head randx.KeyState, ti int) uint64 {
	var kb [20]byte
	return head.Extend(strconv.AppendInt(kb[:0], int64(ti), 10)).Hash64()
}

// rotTask is a boundary-class task and its rotation hash.
type rotTask struct {
	rot uint64
	ti  int
}

// before orders boundary tasks by (rot, ti), a total order.
func (a rotTask) before(b rotTask) bool {
	return a.rot < b.rot || a.rot == b.rot && a.ti < b.ti
}

// selectLeast reorders e so that e[:k] holds its k least tasks, in no
// particular order (quickselect: Hoare partitions around a middle pivot,
// narrowing to the side that holds index k).
func selectLeast(e []rotTask, k int) {
	lo, hi := 0, len(e)
	for hi-lo > 1 {
		p := e[lo+(hi-lo)/2]
		i, j := lo, hi-1
		for i <= j {
			for e[i].before(p) {
				i++
			}
			for p.before(e[j]) {
				j--
			}
			if i <= j {
				e[i], e[j] = e[j], e[i]
				i, j = i+1, j-1
			}
		}
		// e[lo:j+1] <= p <= e[i:hi]; anything between is p itself.
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return
		}
	}
}
