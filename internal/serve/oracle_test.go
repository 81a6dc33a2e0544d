package serve

import (
	"encoding/json"
	"math/bits"
	"net/http"
	"strconv"
	"strings"

	"clientmap/internal/dnswire"
)

// The reference answer builders. These are the handlers' former build
// paths — a DNS reply as a dnswire.Message tree encoded by the general
// marshaller, an HTTP body as the exported response struct through
// encoding/json — kept as the oracle the append paths are held to byte
// for byte by the differential and fuzz tests.

// oracleDNS is the reply a handler for (zone, ttl) over ix owes query,
// limiter and cache aside. A reply that fails to marshal is one the
// server drops.
func oracleDNS(zone string, ttl uint32, ix *Index, query *dnswire.Message) *dnswire.Message {
	refuse := func(rc dnswire.RCode) *dnswire.Message {
		r := query.Reply()
		r.RCode = rc
		return r
	}
	if query.Response || query.Opcode != 0 || len(query.Questions) == 0 {
		return refuse(dnswire.RCodeNotImp)
	}
	q := query.Question()
	name := dnswire.CanonicalName(q.Name)
	if name != zone && !strings.HasSuffix(name, "."+zone) {
		return refuse(dnswire.RCodeRefused)
	}
	if ix == nil {
		return refuse(dnswire.RCodeServFail)
	}

	soa := dnswire.RR{
		Name: zone, Class: dnswire.ClassINET, TTL: ttl,
		Data: dnswire.SOA{
			MName: "ns." + zone, RName: "ops." + zone,
			Serial: uint32(ix.Generation), Refresh: 3600, Retry: 600, Expire: 86400, Minimum: ttl,
		},
	}
	m := &dnswire.Message{ID: query.ID, Response: true, Authoritative: true}
	m.Questions = append(m.Questions, dnswire.Question{Name: name, Type: q.Type, Class: dnswire.ClassINET})
	nxdomain := func() *dnswire.Message {
		m.RCode = dnswire.RCodeNXDomain
		m.Authority = append(m.Authority, soa)
		return m
	}
	listed := func(txt string) *dnswire.Message {
		switch q.Type {
		case dnswire.TypeA:
			m.Answers = append(m.Answers, dnswire.RR{
				Name: name, Class: dnswire.ClassINET, TTL: ttl,
				Data: dnswire.A{Addr: ActiveA},
			})
		case dnswire.TypeTXT:
			m.Answers = append(m.Answers, dnswire.RR{
				Name: name, Class: dnswire.ClassINET, TTL: ttl,
				Data: dnswire.TXT{Strings: []string{txt}},
			})
		default:
			m.Authority = append(m.Authority, soa)
		}
		return m
	}

	if name == zone {
		if q.Type == dnswire.TypeSOA {
			m.Answers = append(m.Answers, soa)
		} else {
			m.Authority = append(m.Authority, soa)
		}
		return m
	}
	if asn, ok := ParseASName(name, zone); ok {
		if a, found := ix.LookupAS(asn); found {
			return listed(oracleASTXT(ix, a))
		}
		return nxdomain()
	}
	if addr, ok := ParseReverseName(name, zone); ok {
		if res := ix.LookupAddr(addr); res.Active {
			return listed(oracleResultTXT(ix, res))
		}
	}
	return nxdomain()
}

func oracleResultTXT(ix *Index, res Result) string {
	var b strings.Builder
	b.WriteString("active=1 scope=")
	b.WriteString(res.Scope.String())
	e := res.Evidence
	b.WriteString(" conf=")
	b.WriteString(strconv.FormatFloat(e.Confidence, 'f', 4, 64))
	b.WriteString(" passes=")
	b.WriteString(strconv.Itoa(bits.OnesCount64(e.PassMask)))
	b.WriteString("/")
	b.WriteString(strconv.Itoa(ix.Meta.Passes))
	b.WriteString(" hits=")
	b.WriteString(strconv.Itoa(e.Hits))
	if res.HasASN {
		b.WriteString(" asn=")
		b.WriteString(strconv.FormatUint(uint64(res.ASN), 10))
	}
	if len(e.PoPs) > 0 {
		b.WriteString(" pops=")
		for i, p := range e.PoPs {
			if i == maxTXTPoPs {
				b.WriteString(";+")
				b.WriteString(strconv.Itoa(len(e.PoPs) - maxTXTPoPs))
				break
			}
			if i > 0 {
				b.WriteString(";")
			}
			b.WriteString(p.PoP)
			b.WriteString(":")
			b.WriteString(strconv.Itoa(p.Hits))
		}
	}
	oracleGen(&b, ix)
	return b.String()
}

func oracleASTXT(ix *Index, a ASEvidence) string {
	var b strings.Builder
	b.WriteString("active=1 asn=")
	b.WriteString(strconv.FormatUint(uint64(a.ASN), 10))
	b.WriteString(" active24=")
	b.WriteString(strconv.Itoa(a.Active24s))
	b.WriteString(" announced24=")
	b.WriteString(strconv.Itoa(a.Announced24s))
	b.WriteString(" conf=")
	b.WriteString(strconv.FormatFloat(a.Confidence, 'f', 4, 64))
	oracleGen(&b, ix)
	return b.String()
}

func oracleGen(b *strings.Builder, ix *Index) {
	b.WriteString(" gen=")
	b.WriteString(strconv.FormatUint(ix.Generation, 10))
	b.WriteString(" artifact=")
	b.WriteString(shortHash(ix.Hash))
}

// oracleHTTP is the body and status the JSON API owes path over ix.
func oracleHTTP(ix *Index, path string) ([]byte, int) {
	provenance := json.RawMessage(`{"generation":` + strconv.FormatUint(ix.Generation, 10) +
		`,"artifact":"` + shortHash(ix.Hash) + `"}`)
	marshal := func(v any) ([]byte, int) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return append(b, '\n'), http.StatusOK
	}
	switch {
	case strings.HasPrefix(path, "/v1/ip/"):
		arg := path[len("/v1/ip/"):]
		addr, ok := parseIPv4(arg)
		if !ok {
			return errBody(http.StatusBadRequest, "bad IPv4 address"), http.StatusBadRequest
		}
		res := ix.LookupAddr(addr)
		resp := IPResponse{Query: arg, Slash24: res.Query.String(), Active: res.Active, Provenance: provenance}
		if res.HasASN {
			resp.ASN = res.ASN
		}
		if res.Active {
			e := res.Evidence
			resp.Scope = res.Scope.String()
			resp.Confidence = e.Confidence
			resp.Passes = bits.OnesCount64(e.PassMask)
			resp.PassTotal = ix.Meta.Passes
			resp.Hits = e.Hits
			resp.Domains = e.Domains
			resp.PoPs = e.PoPs
		}
		return marshal(resp)
	case strings.HasPrefix(path, "/v1/as/"):
		arg := path[len("/v1/as/"):]
		if len(arg) == 0 || len(arg) > 10 || (len(arg) > 1 && arg[0] == '0') {
			return errBody(http.StatusBadRequest, "bad ASN"), http.StatusBadRequest
		}
		v, err := strconv.ParseUint(arg, 10, 32)
		if err != nil {
			return errBody(http.StatusBadRequest, "bad ASN"), http.StatusBadRequest
		}
		resp := ASResponse{ASN: uint32(v), Provenance: provenance}
		if a, found := ix.LookupAS(uint32(v)); found {
			resp.Active = true
			resp.Active24s = a.Active24s
			resp.Announced24s = a.Announced24s
			resp.Confidence = a.Confidence
		}
		return marshal(resp)
	case path == "/v1/summary":
		st := ix.Stats()
		return marshal(SummaryResponse{
			Scopes:      st.Scopes,
			Active24s:   st.Active24s,
			ActiveASes:  st.ActiveASes,
			Origins:     st.Origins,
			TrafficBins: st.TrafficBins,
			Seed:        ix.Meta.Seed,
			Scale:       ix.Meta.Scale,
			Passes:      ix.Meta.Passes,
			Source:      ix.Meta.Source,
			Provenance:  provenance,
		})
	default:
		return errBody(http.StatusNotFound, "unknown path"), http.StatusNotFound
	}
}
