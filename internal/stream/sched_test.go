package stream

import (
	"reflect"
	"testing"
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
