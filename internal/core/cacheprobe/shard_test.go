package cacheprobe

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"clientmap/internal/clockx"
	"clientmap/internal/domains"
	"clientmap/internal/health"
	"clientmap/internal/metrics"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
)

// fakeAssignments builds an assignment shape directly: taskCounts maps
// PoP name → task-list length. Task contents are irrelevant to the
// partitioner, which only reads the shape.
func fakeAssignments(taskCounts map[string]int) *Assignments {
	asg := &Assignments{}
	for pop := range taskCounts {
		asg.popNames = append(asg.popNames, pop)
	}
	// Mirror BuildAssignments' sorted-PoP invariant.
	for i := range asg.popNames {
		for j := i + 1; j < len(asg.popNames); j++ {
			if asg.popNames[j] < asg.popNames[i] {
				asg.popNames[i], asg.popNames[j] = asg.popNames[j], asg.popNames[i]
			}
		}
	}
	asg.tasks = make([][]probeTask, len(asg.popNames))
	for i, pop := range asg.popNames {
		asg.tasks[i] = make([]probeTask, taskCounts[pop])
	}
	return asg
}

// TestPartitionPassExactCoverage: for any shard count, the bins cover
// every (PoP, task) slot exactly once and nothing else.
func TestPartitionPassExactCoverage(t *testing.T) {
	asg := fakeAssignments(map[string]int{
		"ams": 17, "fra": 1, "iad": 64, "nrt": 5, "sin": 0, "syd": 23,
	})
	for _, shards := range []int{1, 2, 3, 8, 17, 100} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			bins := PartitionPass(asg, 2, shards)
			if len(bins) != shards {
				t.Fatalf("got %d bins, want exactly %d", len(bins), shards)
			}
			covered := map[[2]int]int{}
			for _, bin := range bins {
				for _, u := range bin {
					if u.PoP != asg.popNames[u.PoPIndex] {
						t.Fatalf("unit PoP %q does not match popNames[%d]=%q", u.PoP, u.PoPIndex, asg.popNames[u.PoPIndex])
					}
					if u.Lo < 0 || u.Hi > len(asg.tasks[u.PoPIndex]) || u.Lo >= u.Hi {
						t.Fatalf("unit %+v out of bounds for %d tasks", u, len(asg.tasks[u.PoPIndex]))
					}
					for ti := u.Lo; ti < u.Hi; ti++ {
						covered[[2]int{u.PoPIndex, ti}]++
					}
				}
			}
			for pi := range asg.popNames {
				for ti := range asg.tasks[pi] {
					if got := covered[[2]int{pi, ti}]; got != 1 {
						t.Fatalf("task (%d,%d) covered %d times, want exactly once", pi, ti, got)
					}
				}
			}
			want := 0
			for pi := range asg.tasks {
				want += len(asg.tasks[pi])
			}
			if len(covered) != want {
				t.Fatalf("covered %d slots, want %d", len(covered), want)
			}
		})
	}
}

// TestPartitionPassDeterministic: the split is a pure function of
// (assignment shape, pass, shards).
func TestPartitionPassDeterministic(t *testing.T) {
	counts := map[string]int{"ams": 40, "fra": 12, "iad": 7}
	a := PartitionPass(fakeAssignments(counts), 3, 4)
	b := PartitionPass(fakeAssignments(counts), 3, 4)
	if !reflect.DeepEqual(a, b) {
		t.Error("same inputs produced different partitions")
	}
	c := PartitionPass(fakeAssignments(counts), 4, 4)
	if reflect.DeepEqual(a, c) {
		t.Error("different passes produced identical partitions — the deal should rotate per pass")
	}
}

// TestPartitionPassSpreadsOnePoP: a single large PoP must split across
// bins rather than pile onto one runner.
func TestPartitionPassSpreadsOnePoP(t *testing.T) {
	bins := PartitionPass(fakeAssignments(map[string]int{"iad": 1000}), 0, 4)
	nonEmpty := 0
	for _, bin := range bins {
		if len(bin) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("1000 tasks of one PoP landed in %d bin(s), want them spread", nonEmpty)
	}
}

// TestPartitionPassDegenerate: zero-task assignments yield empty bins;
// shard counts below one clamp to a single bin.
func TestPartitionPassDegenerate(t *testing.T) {
	bins := PartitionPass(fakeAssignments(map[string]int{"ams": 0}), 0, 3)
	for i, bin := range bins {
		if len(bin) != 0 {
			t.Errorf("bin %d has %d units for an empty assignment", i, len(bin))
		}
	}
	bins = PartitionPass(fakeAssignments(map[string]int{"ams": 5}), 0, 0)
	if len(bins) != 1 {
		t.Fatalf("shards=0 produced %d bins, want clamp to 1", len(bins))
	}
	if got := len(bins[0]); got != 1 {
		t.Fatalf("clamped partition has %d units, want 1 covering the whole PoP", got)
	}
	if u := bins[0][0]; u.Lo != 0 || u.Hi != 5 {
		t.Errorf("clamped unit = %+v, want [0,5)", u)
	}
}

// TestTaskSlotSizes pins the per-task memory of a probing pass: a plan
// task is a query scope and a catalog index, a result slot the narrowed
// counts the pass cannot recompute.
func TestTaskSlotSizes(t *testing.T) {
	if got := unsafe.Sizeof(probeTask{}); got != 12 {
		t.Errorf("probeTask is %d bytes, want 12", got)
	}
	if got := unsafe.Sizeof(probeResult{}); got != 14 {
		t.Errorf("probeResult is %d bytes, want 14", got)
	}
}

// oneDomainProber is a prober over a one-domain catalog whose single
// vantage sends every query to ex; its plan is one PoP, "ams", holding
// one task per scope.
func oneDomainProber(cfg Config, ex *countingExchanger, scopes ...netx.Prefix) (*Prober, map[string]*Vantage, *Assignments) {
	cfg.Seed = randx.Seed(7)
	cfg.Clock = clockx.NewSim(clockx.Epoch)
	cfg.Domains = []domains.Domain{{Name: "a.example", SupportsECS: true}}
	cfg.Duration = 2 * time.Hour
	cfg.Passes = 2
	cfg.Workers = 1
	asg := &Assignments{popNames: []string{"ams"}, tasks: [][]probeTask{nil}, domains: []string{"a.example"}}
	for _, sc := range scopes {
		asg.tasks[0] = append(asg.tasks[0], probeTask{scope: sc})
	}
	pops := map[string]*Vantage{"ams": {Name: "vm-ams", Exchanger: ex, Server: "gpdns"}}
	return NewProber(cfg, nil, Authoritative{}), pops, asg
}

// TestGatherPassRejectsUnderivableRows: a task slot keeps only the hit
// bit, the response-scope length and narrow counts, and re-derives the
// rest, so GatherPass checks every shard row against what it can derive
// and rejects one that disagrees or does not fit, instead of replacing
// the corrupt value silently. One hostile row per rule.
func TestGatherPassRejectsUnderivableRows(t *testing.T) {
	q0 := netx.MustParsePrefix("10.1.0.0/16")
	q1 := netx.MustParsePrefix("10.2.0.0/18")
	p, pops, asg := oneDomainProber(Config{}, &countingExchanger{}, q0, q1)
	passStart, passWindow := p.passSpan(clockx.Epoch, 1)
	valid := func() []ShardTaskResult {
		return []ShardTaskResult{
			{PoPIndex: 0, TaskIndex: 0, Hit: true, RespScope: netx.MustParsePrefix("10.1.0.0/20"),
				At: taskAt(passStart, passWindow, 0, 2), Probes: 2, RetrySpent: 3, HedgeFired: 1},
			{PoPIndex: 0, TaskIndex: 1, Probes: 5},
		}
	}
	gather := func(rows []ShardTaskResult) error {
		sr := &ShardResult{Pass: 1, Units: []ShardUnit{{PoPIndex: 0, PoP: "ams", Lo: 0, Hi: 2}}, Tasks: rows}
		_, err := p.GatherPass(pops, asg, 1, clockx.Epoch, NewCampaign(), []*ShardResult{sr})
		return err
	}
	if err := gather(valid()); err != nil {
		t.Fatalf("valid rows rejected: %v", err)
	}
	cases := []struct {
		name string
		row  int
		edit func(*ShardTaskResult)
		want string
	}{
		{"hit off its schedule", 0, func(r *ShardTaskResult) { r.At = r.At.Add(time.Nanosecond) }, "scheduled"},
		{"hit scope of another address", 0, func(r *ShardTaskResult) { r.RespScope = netx.MustParsePrefix("10.1.16.0/20") }, "scope"},
		{"hit scope of length zero", 0, func(r *ShardTaskResult) { r.RespScope = netx.Prefix{} }, "scope"},
		{"miss with a time", 1, func(r *ShardTaskResult) { r.At = clockx.Epoch }, "miss"},
		{"miss with a scope", 1, func(r *ShardTaskResult) { r.RespScope = netx.MustParsePrefix("10.2.0.0/20") }, "miss"},
		{"probes above redundancy", 1, func(r *ShardTaskResult) { r.Probes = 6 }, "redundancy"},
		{"negative probes", 1, func(r *ShardTaskResult) { r.Probes = -1 }, "redundancy"},
		{"hedge count wider than its slot", 0, func(r *ShardTaskResult) { r.HedgeFired = math.MaxUint16 + 1 }, "count"},
		{"negative retry count", 1, func(r *ShardTaskResult) { r.RetryRecovered = -1 }, "count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := valid()
			tc.edit(&rows[tc.row])
			err := gather(rows)
			if err == nil {
				t.Fatal("hostile row accepted")
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), fmt.Sprintf("task (0,%d)", tc.row)) {
				t.Errorf("error %q does not name task (0,%d) and %q", err, tc.row, tc.want)
			}
		})
	}
}

// TestPassAtMaximumAttemptsAndRedundancy runs a pass of one task at the
// largest retry policy and redundancy the validators admit, against a
// path where every try and every hedge fails — the most any counter of
// a task slot can reach — and checks each count arrives unwrapped, on
// the in-process path and through a shard row and the gather.
func TestPassAtMaximumAttemptsAndRedundancy(t *testing.T) {
	if err := (Retry{Attempts: maxAttempts}).Validate(); err != nil {
		t.Fatalf("maximum attempts rejected: %v", err)
	}
	if err := (Retry{Attempts: maxAttempts + 1}).Validate(); err == nil {
		t.Fatal("attempts above the maximum accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewProber accepted a redundancy above the maximum")
			}
		}()
		NewProber(Config{Redundancy: maxRedundancy + 1}, nil, Authoritative{})
	}()
	const a, r = maxAttempts, maxRedundancy
	ex := &countingExchanger{failures: math.MaxInt}
	reg := metrics.NewRegistry()
	cfg := Config{
		Redundancy: r,
		Retry:      Retry{Attempts: a},
		Health:     health.NewTracker(health.Default(), clockx.Epoch, nil),
		Metrics:    reg,
	}
	p, pops, asg := oneDomainProber(cfg, ex, netx.MustParsePrefix("10.1.0.0/16"))
	ex.times = make([]time.Time, 0, 2*a*r)
	camp := NewCampaign()
	d, err := p.ProbePassDelta(context.Background(), pops, asg, 0, clockx.Epoch, camp)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"cacheprobe/probe/probes": 2 * a * r, // r logical queries, a tries and a hedges each
		"cacheprobe/retry/spent":  (a - 1) * r,
		"health/hedge/fired":      a * r,
	}
	for k, v := range want {
		if got := d.Metrics[k]; got != v {
			t.Errorf("pass ledger %s = %d, want %d", k, got, v)
		}
	}
	if d.ProbesSent != 2*a*r || ex.calls != 2*a*r {
		t.Errorf("pass sent %d probes over %d exchanges, want %d", d.ProbesSent, ex.calls, 2*a*r)
	}

	sr := p.ProbeShard(context.Background(), pops, asg, 1, clockx.Epoch, camp, PartitionPass(asg, 1, 1)[0])
	tr := sr.Tasks[0]
	if tr.Probes != r || tr.RetrySpent != (a-1)*r || tr.HedgeFired != a*r || tr.HedgeWon != 0 {
		t.Errorf("shard row = %+v, want %d probes, %d retries, %d hedges", tr, r, (a-1)*r, a*r)
	}
	if _, err := p.GatherPass(pops, asg, 1, clockx.Epoch, camp, []*ShardResult{sr}); err != nil {
		t.Errorf("gather rejected the shard's own row: %v", err)
	}
}
