package stream

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"clientmap/internal/randx"
)

func testConfig() Config {
	return Config{Seed: 42, Hours: 24}.WithDefaults()
}

func TestClassifyLadder(t *testing.T) {
	h := int32(10) // ttl 6, flip window 2, margin 2
	cases := []struct {
		name string
		ts   TaskState
		want uint8
	}{
		{"never probed", TaskState{LastProbe: -1, LastHit: -1, FlipHour: -1}, classCold},
		{"recently flipped", TaskState{LastProbe: 9, LastHit: 9, FlipHour: 9, PrevHit: true}, classFlipped},
		{"flip aged out, stable", TaskState{LastProbe: 9, LastHit: 9, FlipHour: 7, PrevHit: true}, classStable},
		{"decaying toward threshold", TaskState{LastProbe: 6, LastHit: 6, FlipHour: -1, PrevHit: true}, classDecaying},
		{"decayed out (cold)", TaskState{LastProbe: 4, LastHit: 4, FlipHour: -1, PrevHit: true}, classCold},
		{"probed, never hit", TaskState{LastProbe: 9, LastHit: -1, FlipHour: -1}, classCold},
		{"fresh hit, stable", TaskState{LastProbe: 9, LastHit: 9, FlipHour: -1, PrevHit: true}, classStable},
	}
	for _, tc := range cases {
		if got := classify(tc.ts, h); got != tc.want {
			t.Errorf("%s: class = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// flipOverridesDecay: a flip within the window outranks everything, even
// when the task is also decaying.
func TestClassifyFlipOutranksDecay(t *testing.T) {
	ts := TaskState{LastProbe: 9, LastHit: 5, FlipHour: 9, PrevHit: false}
	if got := classify(ts, 10); got != classFlipped {
		t.Fatalf("class = %d, want flipped", got)
	}
}

func newTestState(pops []string, tasksPer int) *State {
	s := &State{Cfg: testConfig(), Withdrawn: make(map[string]bool), PoPs: pops}
	s.Tasks = make([][]TaskState, len(pops))
	for i := range s.Tasks {
		ts := make([]TaskState, tasksPer)
		for j := range ts {
			ts[j] = TaskState{LastProbe: -1, LastHit: -1, FlipHour: -1}
		}
		s.Tasks[i] = ts
	}
	return s
}

func TestScheduleBudgetAndOrder(t *testing.T) {
	s := newTestState([]string{"fra", "lhr"}, 100)
	sel, n := s.schedule(0)
	want := int(DefaultBudgetFrac * 100)
	if n != 2*want {
		t.Fatalf("scheduled %d tasks, want %d", n, 2*want)
	}
	for pi, tis := range sel {
		if len(tis) != want {
			t.Fatalf("pop %d: %d tasks, want %d", pi, len(tis), want)
		}
		for i := 1; i < len(tis); i++ {
			if tis[i-1] >= tis[i] {
				t.Fatalf("pop %d: selection not sorted ascending: %v", pi, tis)
			}
		}
	}
	// Pure function of state: same inputs, same selection.
	sel2, _ := s.schedule(0)
	if !reflect.DeepEqual(sel, sel2) {
		t.Fatal("schedule not deterministic")
	}
	// Different hours rotate the cold pool.
	sel3, _ := s.schedule(1)
	if reflect.DeepEqual(sel, sel3) {
		t.Fatal("rotation hash did not vary selection across hours")
	}
}

func TestScheduleMinimumBudget(t *testing.T) {
	s := newTestState([]string{"fra"}, 2) // 0.35*2 < 1 → floor at 1
	_, n := s.schedule(0)
	if n != 1 {
		t.Fatalf("scheduled %d, want minimum budget 1", n)
	}
}

func TestScheduleWithdrawnPoPGetsNothing(t *testing.T) {
	s := newTestState([]string{"fra", "lhr"}, 10)
	s.Withdrawn["fra"] = true
	sel, _ := s.schedule(0)
	if len(sel[0]) != 0 {
		t.Fatalf("withdrawn PoP scheduled %d tasks", len(sel[0]))
	}
	if len(sel[1]) == 0 {
		t.Fatal("live PoP scheduled nothing")
	}
}

// Priority classes actually shape the selection: with a tight budget,
// a decaying task beats stable tasks, and a flipped task beats both.
func TestSchedulePriorityWins(t *testing.T) {
	s := newTestState([]string{"fra"}, 6) // budget int(0.35*6) = 2 tasks
	h := int32(10)
	for i := range s.Tasks[0] {
		// Everyone stable: probed and hit recently.
		s.Tasks[0][i] = TaskState{LastProbe: 9, LastHit: 9, FlipHour: -1, PrevHit: true}
	}
	s.Tasks[0][5] = TaskState{LastProbe: 6, LastHit: 6, FlipHour: -1, PrevHit: true} // decaying
	s.Tasks[0][3] = TaskState{LastProbe: 9, LastHit: 9, FlipHour: 9, PrevHit: true}  // flipped
	sel, _ := s.schedule(h)
	if !reflect.DeepEqual(sel[0], []int{3, 5}) {
		t.Fatalf("selection = %v, want the flipped task 3 and decaying task 5", sel[0])
	}
}

// The rotation must eventually reach every cold task — no starvation.
func TestScheduleRotationCoversAll(t *testing.T) {
	s := newTestState([]string{"fra"}, 40)
	seen := make(map[int]bool)
	for h := int32(0); h < 30; h++ {
		sel, _ := s.schedule(h)
		for _, ti := range sel[0] {
			seen[ti] = true
		}
	}
	if len(seen) != 40 {
		t.Fatalf("rotation reached %d/40 cold tasks in 30 hours", len(seen))
	}
}

// scheduleOracle is the scheduler as first written: every task of every
// live PoP hashed, fully sorted by (class, rot, task), the first budget
// kept and re-sorted by task. schedule must select exactly what it does.
// coarse, when nonzero, reduces each rotation hash modulo coarse.
func scheduleOracle(s *State, h int32, coarse uint64) (sel [][]int, scheduled int) {
	sel = make([][]int, len(s.Tasks))
	type cand struct {
		class uint8
		rot   uint64
		ti    int
	}
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
			rot := s.Cfg.Seed.Hash64(fmt.Sprintf("stream/sched/%d/%s/%d", h, pop, ti))
			if coarse != 0 {
				rot %= coarse
			}
			cands[ti] = cand{class: classify(s.Tasks[pi][ti], h), rot: rot, ti: ti}
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

// randomTaskState draws a task state that lands on any ladder class at
// hour h: a quarter never probed or hit last hour, the rest probed, hit
// and flipped at random hours of the last twelve.
func randomTaskState(rng *randx.Stream, h int32) TaskState {
	past := func() int32 { return h - 1 - int32(rng.Intn(12)) }
	switch rng.Intn(8) {
	case 0:
		return TaskState{LastProbe: -1, LastHit: -1, FlipHour: -1}
	case 1:
		return TaskState{LastProbe: h - 1, LastHit: h - 1, FlipHour: -1, PrevHit: true}
	}
	ts := TaskState{LastProbe: past(), LastHit: -1, FlipHour: -1, PrevHit: rng.Bool(0.5)}
	if rng.Bool(0.7) {
		ts.LastHit = past()
	}
	if rng.Bool(0.3) {
		ts.FlipHour = past()
	}
	return ts
}

// TestScheduleMatchesOracle holds the selecting scheduler to the
// full-sort oracle over random task states, hours, withdrawn sets and
// task counts 0, 1, 2 and 3 000: once with the real rotation hash, and
// once with it reduced modulo 3, so that rotation ties are common and
// their task-index tiebreak is what decides.
func TestScheduleMatchesOracle(t *testing.T) {
	exact := rotate
	defer func() { rotate = exact }()
	for _, coarse := range []uint64{0, 3} {
		rotate = exact
		if coarse != 0 {
			rotate = func(head randx.KeyState, ti int) uint64 { return exact(head, ti) % coarse }
		}
		checkScheduleOracle(t, coarse)
	}
}

func checkScheduleOracle(t *testing.T, coarse uint64) {
	t.Helper()
	pops := []string{"fra", "lhr", "iad", "sin", "gru"}
	counts := []int{0, 1, 2, 3000}
	for _, seed := range []randx.Seed{1, 7, 2021} {
		rng := seed.New("stream/sched-oracle")
		for round := 0; round < 12; round++ {
			h := int32(rng.Intn(48))
			s := &State{Cfg: Config{Seed: seed, Hours: 48}.WithDefaults(), Withdrawn: map[string]bool{}, PoPs: pops}
			s.Tasks = make([][]TaskState, len(pops))
			for pi, pop := range pops {
				n := counts[rng.Intn(len(counts))]
				if pi == 0 {
					n = counts[round%len(counts)] // every count in every seed
				}
				s.Tasks[pi] = make([]TaskState, n)
				for ti := range s.Tasks[pi] {
					s.Tasks[pi][ti] = randomTaskState(rng, h)
				}
				if pi > 0 && rng.Bool(0.2) {
					s.Withdrawn[pop] = true
				}
			}
			sel, n := s.schedule(h)
			want, wantN := scheduleOracle(s, h, coarse)
			if n != wantN || !reflect.DeepEqual(sel, want) {
				t.Fatalf("coarse %d seed %d round %d hour %d: schedule picked %d tasks %v, oracle %d %v",
					coarse, seed, round, h, n, sel, wantN, want)
			}
		}
	}
}

// BenchmarkSchedule times the scheduler over one small-world hour: the
// small campaign's 104 236 tasks (seed 2021), spread evenly over its 22
// PoPs, in randomTaskState's mix of ladder classes. It reports
// stream.schedule_ms.
func BenchmarkSchedule(b *testing.B) {
	const pops, tasks, h = 22, 4738, 12
	s := &State{Cfg: testConfig(), Withdrawn: map[string]bool{}}
	rng := randx.Seed(2021).New("stream/sched-bench")
	for pi := 0; pi < pops; pi++ {
		s.PoPs = append(s.PoPs, fmt.Sprintf("pop-%02d", pi))
		ts := make([]TaskState, tasks)
		for ti := range ts {
			ts[ti] = randomTaskState(rng, h)
		}
		s.Tasks = append(s.Tasks, ts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.schedule(h)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "stream.schedule_ms")
}
