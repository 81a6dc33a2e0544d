package clientmap

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"clientmap/internal/health"
)

var cached *Evaluation

func tinyEval(t testing.TB) *Evaluation {
	t.Helper()
	if cached != nil {
		return cached
	}
	eval, err := Run(Config{Seed: 7, Scale: ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	cached = eval
	return eval
}

func TestRunUnknownScale(t *testing.T) {
	if _, err := Run(Config{Scale: "galactic"}); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestTextRendersAllArtifacts(t *testing.T) {
	text := tinyEval(t).Text()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
		"Figure 1", "Figure 2", "Figure 5", "Headline",
		"cache probing", "DNS logs", "APNIC", "Microsoft clients",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestHeadlinePairsPaperValues(t *testing.T) {
	stats := tinyEval(t).Headline()
	if len(stats) < 10 {
		t.Fatalf("only %d headline stats", len(stats))
	}
	for _, s := range stats {
		if s.Name == "" || s.Paper == "" || s.Measured == "" {
			t.Errorf("incomplete stat: %+v", s)
		}
	}
}

func TestPrefixActive(t *testing.T) {
	eval := tinyEval(t)
	if _, err := eval.PrefixActive("not a cidr"); err == nil {
		t.Error("bad cidr accepted")
	}
	// Reserved space is never active.
	act, err := eval.PrefixActive("240.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if act.Active() || act.ASN != 0 {
		t.Errorf("reserved space active: %+v", act)
	}
	// At least one detected AS prefix resolves as active.
	asns := eval.EyeballASNs()
	if len(asns) == 0 {
		t.Fatal("no eyeball ASes")
	}
	cp, dl := eval.ActivePrefixCount()
	if cp == 0 || dl == 0 {
		t.Fatalf("active counts: %d, %d", cp, dl)
	}
}

func TestASActive(t *testing.T) {
	eval := tinyEval(t)
	asns := eval.EyeballASNs()
	found := false
	for _, asn := range asns {
		a := eval.ASActive(asn)
		if !a.CacheProbing && !a.DNSLogs {
			t.Fatalf("union AS %d not detected by either technique", asn)
		}
		if a.DNSLogs && a.RelativeVolume > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no AS has DNS-logs relative volume")
	}
	if a := eval.ASActive(4294967295); a.CacheProbing || a.DNSLogs {
		t.Error("nonexistent AS detected")
	}
}

func TestCountryCoverage(t *testing.T) {
	cov := tinyEval(t).CountryCoverage()
	if len(cov) == 0 {
		t.Fatal("no countries")
	}
	for c, f := range cov {
		if f < 0 || f > 1 {
			t.Errorf("%s coverage %v", c, f)
		}
	}
}

func TestGeoTrust(t *testing.T) {
	eval := tinyEval(t)
	if _, _, err := eval.GeoTrust("garbage"); err == nil {
		t.Error("bad cidr accepted")
	}
	trusted, reason, err := eval.GeoTrust("240.0.0.0/24")
	if err != nil || trusted || reason == "" {
		t.Errorf("reserved space: trusted=%v reason=%q err=%v", trusted, reason, err)
	}
}

func TestScalesSorted(t *testing.T) {
	s := Scales()
	if len(s) != 4 {
		t.Fatalf("scales = %v", s)
	}
}

func TestActivityRanking(t *testing.T) {
	eval := tinyEval(t)
	ranking := eval.ActivityRanking(10)
	if len(ranking) == 0 || len(ranking) > 10 {
		t.Fatalf("ranking size %d", len(ranking))
	}
	for i, r := range ranking {
		if r.Prefix == "" || r.Activity <= 0 || r.Warmth <= 0 {
			t.Errorf("entry %d incomplete: %+v", i, r)
		}
		if i > 0 && ranking[i-1].Activity < r.Activity {
			t.Error("ranking not descending")
		}
	}
	all := eval.ActivityRanking(0)
	if len(all) < len(ranking) {
		t.Error("n=0 should return the full ranking")
	}
}

// TestRunStreamServesDebugAddr: a stream run with DebugAddr set logs the
// address it bound and answers /metrics there while the run is in
// progress. The stream config used to have no DebugAddr at all, so
// a -stream N -debug-addr … command line silently served nothing.
func TestRunStreamServesDebugAddr(t *testing.T) {
	var (
		mu      sync.Mutex
		addr    string
		metrics string
	)
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		mu.Lock()
		defer mu.Unlock()
		if a, ok := strings.CutPrefix(line, "debug server listening on "); ok {
			addr = a
		}
		// An hour stage starting is proof the run is under way; ask once.
		if addr == "" || metrics != "" || !strings.HasPrefix(line, "stage stream-hour-") {
			return
		}
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Errorf("GET /metrics during the run: %v", err)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("GET /metrics during the run: status %d, %v", resp.StatusCode, err)
		}
		metrics = string(body)
	}
	run, err := RunStream(Config{Seed: 7, Scale: ScaleTiny, StreamHours: 2, DebugAddr: "127.0.0.1:0", Log: logf})
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("run never logged the debug server's address")
	}
	if !strings.Contains(metrics, `"cacheprobe/`) {
		t.Errorf("/metrics during the run served no live probe counters: %q", metrics)
	}
	if run.FinalArtifactHash() == "" {
		t.Error("stream produced no rolling artifact")
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("debug server still answering after RunStream returned")
	}
}

// TestEngineConfigParsesSpecs: the one translation turns each spec string
// into its typed config — the values a valid spec names, the defaults
// "on" stands for, off for empty — and a spec it rejects is named by its
// field and flag.
func TestEngineConfigParsesSpecs(t *testing.T) {
	ecfg, err := Config{
		Faults:     "loss=0.02,dup=0.01,trunc=0.005,jitter=50ms,outage=fra@24h+6h",
		Retries:    "attempts=3,timeout=2s,backoff=100ms,budget=1000",
		Health:     "window=10m,error-rate=0.6,hedge-after=100ms",
		DiskFaults: "torn=probe-pass-1@1",
		StateDir:   t.TempDir(),
	}.engineConfig()
	if err != nil {
		t.Fatalf("valid specs rejected: %v", err)
	}
	fc, rc, hc := ecfg.Faults, ecfg.Retry, ecfg.Health
	if fc.Loss != 0.02 || fc.Dup != 0.01 || fc.Trunc != 0.005 || fc.Jitter != 50*time.Millisecond {
		t.Errorf("fault rates not parsed: %+v", fc)
	}
	if len(fc.Outages) != 1 || fc.Outages[0].Target != "fra" ||
		fc.Outages[0].Start != 24*time.Hour || fc.Outages[0].Duration != 6*time.Hour {
		t.Errorf("outage not parsed: %+v", fc.Outages)
	}
	if rc.Attempts != 3 || rc.Timeout != 2*time.Second || rc.Backoff != 100*time.Millisecond || rc.BudgetPerPoP != 1000 {
		t.Errorf("retry policy not parsed: %+v", rc)
	}
	if !hc.On || hc.Window != 10*time.Minute || hc.ErrorRate != 0.6 || hc.HedgeAfter != 100*time.Millisecond {
		t.Errorf("health policy not parsed: %+v", hc)
	}
	if ecfg.FS == nil {
		t.Error("disk-fault spec installed no faulty state FS")
	}

	if ecfg, err := (Config{}).engineConfig(); err != nil || ecfg.Health.Enabled() || ecfg.Faults.Enabled() || ecfg.FS != nil {
		t.Errorf("empty specs must mean off, got health %+v, faults %+v, FS %v, %v", ecfg.Health, ecfg.Faults, ecfg.FS, err)
	}
	if ecfg, err := (Config{Health: "on"}).engineConfig(); err != nil || ecfg.Health != health.Default() {
		t.Errorf(`Health "on" must mean the default policy, got %+v, %v`, ecfg.Health, err)
	}
	for _, bad := range []struct {
		cfg  Config
		name string
	}{
		{Config{Faults: "loss=1.5"}, "Faults (-faults)"},
		{Config{Retries: "attempts=2,tries=7"}, "Retries (-retries)"},
		{Config{Health: "windows=5m"}, "Health (-health)"},
		{Config{Churn: "bogus=1"}, "Churn (-churn)"},
		{Config{DiskFaults: "torn=@2"}, "DiskFaults (-disk-faults)"},
	} {
		if _, err := bad.cfg.engineConfig(); err == nil || !strings.Contains(err.Error(), bad.name) {
			t.Errorf("%+v: error %v does not name %s", bad.cfg, err, bad.name)
		}
	}
}

// TestRunValidatesBeforeDebugAddr: a configuration Run rejects fails on
// its own rule even when DebugAddr names a port that is taken, because
// validation comes before anything binds.
func TestRunValidatesBeforeDebugAddr(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, err = Run(Config{Scale: ScaleTiny, Shards: 3, ShardIndex: 5, StateDir: t.TempDir(), DebugAddr: ln.Addr().String()})
	if err == nil || !strings.Contains(err.Error(), "ShardIndex") {
		t.Fatalf("Run with an out-of-range ShardIndex and a taken DebugAddr: error %v, want one naming ShardIndex", err)
	}
}
