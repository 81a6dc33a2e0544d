package stream

import (
	"sort"
	"strconv"
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
func (s *State) schedule(h int32) (sel [][]int, scheduled int) {
	sel = make([][]int, len(s.Tasks))
	type cand struct {
		class uint8
		rot   uint64
		ti    int
	}
	var key []byte
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
		cands := make([]cand, n)
		for ti := range s.Tasks[pi] {
			key = key[:0]
			key = append(key, "stream/sched/"...)
			key = strconv.AppendInt(key, int64(h), 10)
			key = append(key, '/')
			key = append(key, pop...)
			key = append(key, '/')
			key = strconv.AppendInt(key, int64(ti), 10)
			cands[ti] = cand{
				class: classify(s.Tasks[pi][ti], h),
				rot:   s.Cfg.Seed.Hash64B(key),
				ti:    ti,
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].class != cands[j].class {
				return cands[i].class < cands[j].class
			}
			if cands[i].rot != cands[j].rot {
				return cands[i].rot < cands[j].rot
			}
			return cands[i].ti < cands[j].ti
		})
		picked := make([]int, 0, budget)
		for _, c := range cands[:budget] {
			picked = append(picked, c.ti)
		}
		sort.Ints(picked)
		sel[pi] = picked
		scheduled += len(picked)
	}
	return sel, scheduled
}
