package serve

import (
	"encoding/json"
	"math"
	"math/bits"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// HTTPHandler answers the JSON query API:
//
//	GET /v1/ip/<dotted-quad>   activity of the address's /24
//	GET /v1/as/<asn>           activity aggregate of an AS
//	GET /v1/summary            artifact shape + provenance
//	GET /healthz               200 once an artifact is loaded, 503 before
//
// Every body is a pure function of (generation, path), built on each
// request by appending into a pooled buffer (dnswire's: bytes are bytes):
// there is no response cache. The bodies are byte for byte what
// encoding/json gives for the response structs in oracle_test.go, which
// the differential and fuzz tests hold.
type HTTPHandler struct {
	store  *Store
	limits *Limiter
	met    *serveMetrics
}

// appendProvenance closes a body with its last field, the
// generation/artifact pair every response embeds, so a client (and the
// reload race test) can tell which load answered it.
func appendProvenance(b []byte, ix *Index) []byte {
	b = append(b, `,"provenance":{"generation":`...)
	b = strconv.AppendUint(b, ix.Generation, 10)
	b = append(b, `,"artifact":`...)
	b = appendJSONString(b, shortHash(ix.Hash))
	return append(b, "}}\n"...)
}

// errBody is the uniform JSON error shape.
func errBody(code int, msg string) []byte {
	b, _ := json.Marshal(map[string]any{"error": msg, "status": code})
	return append(b, '\n')
}

func writeJSON(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

// clientAddr derives the rate-limit key from the request's RemoteAddr.
// Non-IPv4 peers (IPv6 loopback during tests) fold to a fixed key rather
// than escaping the limiter.
func clientAddr(r *http.Request) netx.Addr {
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	host = strings.Trim(host, "[]")
	if a, ok := parseIPv4(host); ok {
		return a
	}
	return netx.AddrFrom4(127, 0, 0, 1)
}

// parseIPv4 parses a canonical dotted quad with the same strictness as
// the DNS reverse-name octets.
func parseIPv4(s string) (netx.Addr, bool) {
	var oct [4]byte
	for i := 0; i < 4; i++ {
		var label string
		if i < 3 {
			dot := strings.IndexByte(s, '.')
			if dot < 0 {
				return 0, false
			}
			label, s = s[:dot], s[dot+1:]
		} else {
			label = s
		}
		v, ok := parseOctet(label)
		if !ok {
			return 0, false
		}
		oct[i] = v
	}
	return netx.AddrFrom4(oct[0], oct[1], oct[2], oct[3]), true
}

// ServeHTTP implements http.Handler.
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.met.httpQueries.Inc()
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeJSON(w, http.StatusMethodNotAllowed, errBody(http.StatusMethodNotAllowed, "GET only"))
		return
	}
	if r.URL.Path == "/healthz" {
		if h.store.Current() == nil {
			writeJSON(w, http.StatusServiceUnavailable, errBody(http.StatusServiceUnavailable, "no artifact loaded"))
			return
		}
		writeJSON(w, http.StatusOK, []byte("{\"ok\":true}\n"))
		return
	}
	if h.limits != nil && !h.limits.Allow(clientAddr(r)) {
		h.met.httpRateLimited.Inc()
		writeJSON(w, http.StatusTooManyRequests, errBody(http.StatusTooManyRequests, "rate limit exceeded"))
		return
	}
	ix := h.store.Current()
	if ix == nil {
		writeJSON(w, http.StatusServiceUnavailable, errBody(http.StatusServiceUnavailable, "no artifact loaded"))
		return
	}
	bp := dnswire.AcquireBuf()
	body, code := appendAnswer(*bp, ix, r.URL.Path)
	writeJSON(w, code, body)
	*bp = body
	dnswire.ReleaseBuf(bp)
}

// appendAnswer appends the response body for a query path, built from
// one pinned index, and returns it with the status.
func appendAnswer(b []byte, ix *Index, path string) ([]byte, int) {
	switch {
	case strings.HasPrefix(path, "/v1/ip/"):
		arg := path[len("/v1/ip/"):]
		addr, ok := parseIPv4(arg)
		if !ok {
			return append(b, errBody(http.StatusBadRequest, "bad IPv4 address")...), http.StatusBadRequest
		}
		return appendIP(b, ix, arg, ix.LookupAddr(addr)), http.StatusOK
	case strings.HasPrefix(path, "/v1/as/"):
		arg := path[len("/v1/as/"):]
		v, err := strconv.ParseUint(arg, 10, 32)
		if err != nil || (len(arg) > 1 && arg[0] == '0') {
			return append(b, errBody(http.StatusBadRequest, "bad ASN")...), http.StatusBadRequest
		}
		return appendAS(b, ix, uint32(v)), http.StatusOK
	case path == "/v1/summary":
		return appendSummary(b, ix), http.StatusOK
	default:
		return append(b, errBody(http.StatusNotFound, "unknown path")...), http.StatusNotFound
	}
}

// appendIP appends an IPResponse. arg has passed parseIPv4, so it is
// digits and dots and needs no escaping.
func appendIP(b []byte, ix *Index, arg string, res Result) []byte {
	b = append(b, `{"query":"`...)
	b = append(b, arg...)
	b = append(b, `","slash24":"`...)
	b = res.Query.AppendTo(b)
	b = append(b, `","active":`...)
	b = strconv.AppendBool(b, res.Active)
	if res.Active {
		e := res.Evidence
		b = append(b, `,"scope":"`...)
		b = res.Scope.AppendTo(b)
		b = append(b, '"')
		b = appendFloat(b, `,"confidence":`, e.Confidence)
		b = appendInt(b, `,"passes":`, int64(bits.OnesCount64(e.PassMask)))
		b = appendInt(b, `,"pass_total":`, int64(ix.Meta.Passes))
		b = appendInt(b, `,"hits":`, int64(e.Hits))
		b = appendInt(b, `,"domains":`, int64(e.Domains))
		if len(e.PoPs) > 0 {
			b = append(b, `,"pops":[`...)
			for i, p := range e.PoPs {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"PoP":`...)
				b = appendJSONString(b, p.PoP)
				b = append(b, `,"Hits":`...)
				b = strconv.AppendInt(b, int64(p.Hits), 10)
				b = append(b, '}')
			}
			b = append(b, ']')
		}
	}
	if res.HasASN {
		b = appendInt(b, `,"asn":`, int64(res.ASN))
	}
	return appendProvenance(b, ix)
}

// appendAS appends an ASResponse.
func appendAS(b []byte, ix *Index, asn uint32) []byte {
	a, found := ix.LookupAS(asn)
	b = append(b, `{"asn":`...)
	b = strconv.AppendUint(b, uint64(asn), 10)
	b = append(b, `,"active":`...)
	b = strconv.AppendBool(b, found)
	if found {
		b = appendInt(b, `,"active_24s":`, int64(a.Active24s))
		b = appendInt(b, `,"announced_24s":`, int64(a.Announced24s))
		b = appendFloat(b, `,"confidence":`, a.Confidence)
	}
	return appendProvenance(b, ix)
}

// appendSummary appends a SummaryResponse.
func appendSummary(b []byte, ix *Index) []byte {
	st := ix.Stats()
	b = append(b, `{"scopes":`...)
	b = strconv.AppendInt(b, int64(st.Scopes), 10)
	b = append(b, `,"active_24s":`...)
	b = strconv.AppendInt(b, int64(st.Active24s), 10)
	b = append(b, `,"active_ases":`...)
	b = strconv.AppendInt(b, int64(st.ActiveASes), 10)
	b = append(b, `,"origins":`...)
	b = strconv.AppendInt(b, int64(st.Origins), 10)
	b = append(b, `,"traffic_bins":`...)
	b = strconv.AppendInt(b, int64(st.TrafficBins), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, ix.Meta.Seed, 10)
	b = append(b, `,"scale":`...)
	b = appendJSONString(b, ix.Meta.Scale)
	b = append(b, `,"passes":`...)
	b = strconv.AppendInt(b, int64(ix.Meta.Passes), 10)
	if ix.Meta.Source != "" {
		b = append(b, `,"source":`...)
		b = appendJSONString(b, ix.Meta.Source)
	}
	return appendProvenance(b, ix)
}

// appendInt appends an omitempty integer field: nothing when v is zero.
func appendInt(b []byte, field string, v int64) []byte {
	if v == 0 {
		return b
	}
	b = append(b, field...)
	return strconv.AppendInt(b, v, 10)
}

// appendFloat appends an omitempty float field the way encoding/json
// formats one: shortest digits, exponent form outside [1e-6, 1e21). JSON
// has no NaN or infinity — encoding/json refuses them — so a non-finite
// value is left out like a zero.
func appendFloat(b []byte, field string, f float64) []byte {
	abs := math.Abs(f)
	if abs == 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return b
	}
	b = append(b, field...)
	if abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	// Two-digit negative exponents lose their padding: e-09 is e-9.
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s as a JSON string literal exactly as
// encoding/json does with its default HTML escaping: short escapes for
// the usual controls, \u00XX for the other controls and for <, > and &,
// \ufffd for invalid UTF-8, and U+2028/U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0 // s[start:i] is pending, to be copied as it stands
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			if k := strings.IndexByte("\"\\\b\f\n\r\t", c); k >= 0 {
				b = append(b, '\\', "\"\\bfnrt"[k])
			} else {
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// SortedASNs returns the index's active ASNs ascending — exported for
// the benchmark's AS query mix.
func (ix *Index) SortedASNs() []uint32 {
	out := make([]uint32, len(ix.asns))
	copy(out, ix.asns)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
