package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"clientmap/internal/clockx"
)

// testHTTPHandler builds the JSON handler over the fixture index.
func testHTTPHandler(t testing.TB) *HTTPHandler {
	t.Helper()
	store := NewStore()
	store.Swap(testClientMap(t), "fixturehash0001")
	return &HTTPHandler{store: store, met: newServeMetrics(nil)}
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.RemoteAddr = "127.0.0.1:53000"
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHTTPIPActive(t *testing.T) {
	h := testHTTPHandler(t)
	w := get(h, "/v1/ip/192.0.2.17")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp IPResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Active || resp.Scope != "192.0.2.0/24" || resp.ASN != 64500 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Hits != 7 || resp.Domains != 2 || resp.Passes != 4 || resp.PassTotal != 4 {
		t.Errorf("evidence = %+v", resp)
	}
	if len(resp.PoPs) != 1 || resp.PoPs[0].PoP != "fra" {
		t.Errorf("pops = %+v", resp.PoPs)
	}
	var prov struct {
		Generation uint64 `json:"generation"`
		Artifact   string `json:"artifact"`
	}
	if err := json.Unmarshal(resp.Provenance, &prov); err != nil {
		t.Fatal(err)
	}
	if prov.Generation != 1 || prov.Artifact != "fixturehash0" {
		t.Errorf("provenance = %+v", prov)
	}
}

func TestHTTPIPInactive(t *testing.T) {
	h := testHTTPHandler(t)
	w := get(h, "/v1/ip/198.51.102.1")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var resp IPResponse
	json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.Active || resp.Scope != "" {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.ASN != 64500 {
		t.Errorf("origin missing for announced-inactive space: %+v", resp)
	}
}

func TestHTTPIPBadAddress(t *testing.T) {
	h := testHTTPHandler(t)
	for _, arg := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "01.2.3.4", "a.b.c.d", "1.2.3.4/24", "%00"} {
		if w := get(h, "/v1/ip/"+arg); w.Code != http.StatusBadRequest && w.Code != http.StatusNotFound {
			t.Errorf("ip %q = %d, want 400/404", arg, w.Code)
		}
	}
}

func TestHTTPAS(t *testing.T) {
	h := testHTTPHandler(t)
	var resp ASResponse
	w := get(h, "/v1/as/64500")
	json.Unmarshal(w.Body.Bytes(), &resp)
	if w.Code != http.StatusOK || !resp.Active || resp.Active24s != 3 || resp.Announced24s != 5 {
		t.Fatalf("status %d resp %+v", w.Code, resp)
	}
	w = get(h, "/v1/as/65000")
	json.Unmarshal(w.Body.Bytes(), &resp)
	if w.Code != http.StatusOK || resp.Active {
		t.Fatalf("unknown AS: status %d resp %+v", w.Code, resp)
	}
	for _, arg := range []string{"", "x", "-1", "01", "99999999999"} {
		if w := get(h, "/v1/as/"+arg); w.Code != http.StatusBadRequest {
			t.Errorf("as %q = %d, want 400", arg, w.Code)
		}
	}
}

func TestHTTPSummary(t *testing.T) {
	h := testHTTPHandler(t)
	w := get(h, "/v1/summary")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var resp SummaryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Scopes != 3 || resp.Active24s != 4 || resp.ActiveASes != 2 || resp.Seed != 99 || resp.Scale != "fixture" {
		t.Fatalf("summary = %+v", resp)
	}
}

func TestHTTPHealthz(t *testing.T) {
	empty := &HTTPHandler{store: NewStore(), met: newServeMetrics(nil)}
	if w := get(empty, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("unloaded healthz = %d", w.Code)
	}
	h := testHTTPHandler(t)
	if w := get(h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("loaded healthz = %d", w.Code)
	}
}

func TestHTTPNotFoundAndMethods(t *testing.T) {
	h := testHTTPHandler(t)
	for _, path := range []string{"/", "/v1", "/v1/other", "/v2/ip/1.2.3.4"} {
		if w := get(h, path); w.Code != http.StatusNotFound {
			t.Errorf("%q = %d, want 404", path, w.Code)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/summary", nil)
	req.RemoteAddr = "127.0.0.1:53000"
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST = %d", w.Code)
	}
}

func TestHTTPServiceUnavailableBeforeLoad(t *testing.T) {
	empty := &HTTPHandler{store: NewStore(), met: newServeMetrics(nil)}
	if w := get(empty, "/v1/summary"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("unloaded query = %d", w.Code)
	}
}

// TestHTTPRepeatBytesIdentical: a body is a pure function of (generation,
// path), so asking twice — the second time into a buffer the pool has
// already handed out once — gives the same bytes.
func TestHTTPRepeatBytesIdentical(t *testing.T) {
	h := testHTTPHandler(t)
	paths := []string{"/v1/ip/192.0.2.17", "/v1/ip/8.8.8.8", "/v1/as/64500", "/v1/summary"}
	for _, path := range paths {
		first := get(h, path).Body.String()
		second := get(h, path).Body.String()
		if first != second {
			t.Fatalf("%s: body changed between requests\nfirst:  %s\nsecond: %s", path, first, second)
		}
	}
}

func TestHTTPRateLimit(t *testing.T) {
	h := testHTTPHandler(t)
	clock := clockx.NewSim(clockx.Epoch)
	h.limits = NewLimiter(LimiterConfig{Clock: clock, Rate: 1, Burst: 2})
	var got []int
	for i := 0; i < 3; i++ {
		got = append(got, get(h, "/v1/summary").Code)
	}
	if got[0] != 200 || got[1] != 200 || got[2] != http.StatusTooManyRequests {
		t.Fatalf("codes = %v", got)
	}
	// healthz bypasses the limiter: probes must not be throttled out.
	if w := get(h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz throttled: %d", w.Code)
	}
	if h.met.httpRateLimited.Value() != 1 {
		t.Errorf("rate_limited counter = %d", h.met.httpRateLimited.Value())
	}
}

func TestParseIPv4(t *testing.T) {
	good := map[string][4]byte{
		"0.0.0.0":         {0, 0, 0, 0},
		"255.255.255.255": {255, 255, 255, 255},
		"192.0.2.17":      {192, 0, 2, 17},
	}
	for s, oct := range good {
		a, ok := parseIPv4(s)
		if !ok {
			t.Errorf("parseIPv4(%q) rejected", s)
			continue
		}
		b0, b1, b2, b3 := a.Octets()
		if [4]byte{b0, b1, b2, b3} != oct {
			t.Errorf("parseIPv4(%q) = %v", s, a)
		}
	}
	for _, s := range []string{"", "1", "1.2.3", "1.2.3.4.5", "256.0.0.1", "01.0.0.1", "1.2.3.x", "1.2..4"} {
		if _, ok := parseIPv4(s); ok {
			t.Errorf("parseIPv4(%q) accepted", s)
		}
	}
}
