package main

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// stageSpan is one pipeline stage seen from outside: the benchmark stamps
// the "stage <name>: running" and "stage <name>: done" lines the pipeline
// already hands to Config.Log. Times are seconds since the run began.
type stageSpan struct {
	Name      string  `json:"name"`
	Start     float64 `json:"start"`
	End       float64 `json:"end"`
	Restored  bool    `json:"restored,omitempty"`
	CkptBytes int64   `json:"ckpt_bytes,omitempty"`
	CkptMS    float64 `json:"ckpt_ms,omitempty"`
}

func (s stageSpan) seconds() float64 { return s.End - s.Start }

var (
	stageRunning  = regexp.MustCompile(`^stage ([^:]+): running \(fingerprint `)
	stageDone     = regexp.MustCompile(`^stage ([^:]+): done in \S+?(?:, checkpointed (\d+) bytes in (\S+))?$`)
	stageRestored = regexp.MustCompile(`^stage ([^:]+): restored checkpoint \((\d+) bytes in (\S+),`)
)

// stageLog collects stage spans from pipeline log lines. Its logf is what
// a run's Config.Log is set to; stages run concurrently, so it locks.
type stageLog struct {
	mu    sync.Mutex
	t0    time.Time
	open  map[string]float64
	spans []stageSpan
}

func newStageLog() *stageLog {
	return &stageLog{t0: time.Now(), open: make(map[string]float64)}
}

func (l *stageLog) logf(format string, args ...any) {
	now := time.Since(l.t0).Seconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.observe(now, fmt.Sprintf(format, args...))
}

// observe folds one log line, stamped at the given offset, into the span
// list. Lines that are not stage boundaries are ignored.
func (l *stageLog) observe(at float64, line string) {
	line = strings.TrimSpace(line)
	if m := stageRunning.FindStringSubmatch(line); m != nil {
		l.open[m[1]] = at
		return
	}
	if m := stageDone.FindStringSubmatch(line); m != nil {
		start, ok := l.open[m[1]]
		if !ok {
			return
		}
		delete(l.open, m[1])
		sp := stageSpan{Name: m[1], Start: start, End: at}
		if m[2] != "" {
			sp.CkptBytes, _ = strconv.ParseInt(m[2], 10, 64)
			if d, err := time.ParseDuration(m[3]); err == nil {
				sp.CkptMS = float64(d) / float64(time.Millisecond)
			}
		}
		l.spans = append(l.spans, sp)
		return
	}
	if m := stageRestored.FindStringSubmatch(line); m != nil {
		sp := stageSpan{Name: m[1], Start: at, End: at, Restored: true}
		sp.CkptBytes, _ = strconv.ParseInt(m[2], 10, 64)
		if d, err := time.ParseDuration(m[3]); err == nil {
			sp.Start = at - d.Seconds()
		}
		l.spans = append(l.spans, sp)
	}
}

// result returns the spans sorted by start time.
func (l *stageLog) result() []stageSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]stageSpan(nil), l.spans...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// stageIndex looks spans up by name.
type stageIndex map[string]stageSpan

func indexStages(spans []stageSpan) stageIndex {
	ix := make(stageIndex, len(spans))
	for _, s := range spans {
		ix[s.Name] = s
	}
	return ix
}

// need returns the named executed span, or an error: a stage the
// benchmark expects but cannot see means the log format moved on, and
// the benchmark must fail rather than report zeros.
func (ix stageIndex) need(name string) (stageSpan, error) {
	s, ok := ix[name]
	if !ok || s.Restored {
		return stageSpan{}, fmt.Errorf("stage %q yielded no span (has the pipeline log format changed?)", name)
	}
	return s, nil
}

// withPrefix returns the executed spans whose name is prefix followed by
// a number, ordered by that number.
func (ix stageIndex) withPrefix(prefix string) []stageSpan {
	type numbered struct {
		n int
		s stageSpan
	}
	var ns []numbered
	for name, s := range ix {
		rest, ok := strings.CutPrefix(name, prefix)
		if !ok || s.Restored {
			continue
		}
		n, err := strconv.Atoi(rest)
		if err != nil {
			continue
		}
		ns = append(ns, numbered{n, s})
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].n < ns[j].n })
	out := make([]stageSpan, len(ns))
	for i, v := range ns {
		out[i] = v.s
	}
	return out
}
