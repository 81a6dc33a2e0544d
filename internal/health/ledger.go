package health

import "time"

// WindowSum is one accounting window's outcome totals for a target.
// Sums are order-independent, so a window's value is identical for any
// worker schedule that feeds it the same probes.
type WindowSum struct {
	// Index is the window's ordinal since the tracker epoch (window k
	// covers [epoch+k·Window, epoch+(k+1)·Window)).
	Index int64
	// OK and Fail count exchange outcomes observed in the window.
	OK, Fail int64
}

// Transition is one breaker state change, replayed deterministically
// from window sums.
type Transition struct {
	// Target is the breaker's transport path (a vantage name, "auth").
	Target string
	// At is the sim-clock time of the change — a window boundary for
	// trips and recoveries, the jittered probation end for half-opens.
	At time.Time
	// From and To are the states either side of the change.
	From, To State
}

// PassCoverage is one probing pass's task-routing ledger: how many task
// slots ran on their own PoP, how many were re-routed, and how many had
// no in-radius fallback and were lost.
type PassCoverage struct {
	// Pass is the pass index.
	Pass int `json:"pass"`
	// Assigned counts the pass's task slots.
	Assigned int64 `json:"assigned"`
	// Primary counts tasks probed through their own PoP's primary
	// vantage with the breaker closed.
	Primary int64 `json:"primary"`
	// Trial counts tasks admitted to a half-open PoP as trials.
	Trial int64 `json:"trial"`
	// Alternate counts tasks re-routed to an alternate vantage that
	// reaches the same PoP (full recovery: the PoP's caches are shared
	// by all vantages routed to it).
	Alternate int64 `json:"alternate"`
	// Fallback counts tasks re-routed to the nearest healthy PoP within
	// the task's calibrated service radius (partial recovery).
	Fallback int64 `json:"fallback"`
	// Lost counts tasks with no healthy in-radius fallback; they were
	// not probed this pass.
	Lost int64 `json:"lost"`
}

// Ledger is the degradation layer's checkpointable state and accounting:
// everything needed to resume a campaign bit-identically and to report
// what degraded operation cost. It rides in the campaign artifact.
type Ledger struct {
	// Windows holds each target's outcome windows in ascending Index
	// order — the breaker's entire replayable state.
	Windows map[string][]WindowSum
	// Transitions is the breaker state timeline replayed through the
	// last sequential point, sorted by (At, Target).
	Transitions []Transition
	// Coverage is the per-pass task-routing ledger.
	Coverage []PassCoverage
	// FailedOver counts task slots re-routed away from each PoP
	// (alternate-vantage and cross-PoP fallback routes) over the
	// campaign.
	FailedOver map[string]int64
	// LostTasks counts, per PoP and task index, the passes in which the
	// task was lost. A task lost in every pass was never probed at all
	// — the campaign's true (not just per-pass) coverage hole.
	LostTasks map[string]map[int]int
}

// FailOver records one of pop's task slots re-routed elsewhere.
func (l *Ledger) FailOver(pop string) {
	if l.FailedOver == nil {
		l.FailedOver = make(map[string]int64)
	}
	l.FailedOver[pop]++
}

// LoseTask records pop's task ti as lost in one pass.
func (l *Ledger) LoseTask(pop string, ti int) {
	if l.LostTasks == nil {
		l.LostTasks = make(map[string]map[int]int)
	}
	m := l.LostTasks[pop]
	if m == nil {
		m = make(map[int]int)
		l.LostTasks[pop] = m
	}
	m[ti]++
}

// EstimatedLossPP estimates the campaign's coverage loss in percentage
// points: the share of task slots that were lost in every pass recorded
// so far. Tasks lost in some passes but probed in others still establish
// their prefix's presence, so only never-probed tasks are counted as
// coverage the campaign cannot claim.
func (l *Ledger) EstimatedLossPP() float64 {
	passes := len(l.Coverage)
	if passes == 0 {
		return 0
	}
	assigned := l.Coverage[passes-1].Assigned
	if assigned == 0 {
		return 0
	}
	var never int64
	for _, tasks := range l.LostTasks {
		for _, lost := range tasks {
			if lost == passes {
				never++
			}
		}
	}
	return 100 * float64(never) / float64(assigned)
}

// StateDurations sums, per target, the time spent in each state over
// [from, to) according to the transition timeline. Targets that never
// transitioned are omitted — they were closed throughout.
func (l *Ledger) StateDurations(from, to time.Time) map[string][3]time.Duration {
	byTarget := make(map[string][]Transition)
	for _, tr := range l.Transitions {
		byTarget[tr.Target] = append(byTarget[tr.Target], tr)
	}
	out := make(map[string][3]time.Duration, len(byTarget))
	for target, trs := range byTarget {
		var d [3]time.Duration
		state, at := Closed, from
		for _, tr := range trs {
			if tr.At.After(to) {
				break
			}
			if tr.At.After(at) {
				d[state] += tr.At.Sub(at)
				at = tr.At
			}
			state = tr.To
		}
		if to.After(at) {
			d[state] += to.Sub(at)
		}
		out[target] = d
	}
	return out
}
