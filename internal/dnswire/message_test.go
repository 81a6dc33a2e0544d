package dnswire

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"clientmap/internal/netx"
)

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	wire, err := m.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := Unmarshal(wire)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return back
}

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "WWW.Google.COM.", TypeA)
	q.RecursionDesired = false
	back := roundTrip(t, q)
	if back.ID != 0x1234 || back.Response || back.RecursionDesired {
		t.Errorf("header mismatch: %+v", back)
	}
	want := Question{Name: "www.google.com", Type: TypeA, Class: ClassINET}
	if back.Question() != want {
		t.Errorf("question = %+v, want %+v", back.Question(), want)
	}
}

func TestResponseRoundTripAllRRTypes(t *testing.T) {
	q := NewQuery(7, "example.com", TypeA)
	r := q.Reply()
	r.Authoritative = true
	r.RecursionAvailable = true
	r.Answers = []RR{
		{Name: "example.com", Class: ClassINET, TTL: 300, Data: A{Addr: netx.MustParseAddr("192.0.2.1")}},
		{Name: "example.com", Class: ClassINET, TTL: 300, Data: CNAME{Target: "cdn.example.net"}},
		{Name: "example.com", Class: ClassINET, TTL: 60, Data: TXT{Strings: []string{"hello", "world"}}},
	}
	r.Authority = []RR{
		{Name: "example.com", Class: ClassINET, TTL: 86400, Data: NS{Host: "ns1.example.com"}},
		{Name: "example.com", Class: ClassINET, TTL: 86400, Data: SOA{
			MName: "ns1.example.com", RName: "hostmaster.example.com",
			Serial: 2021110201, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
		}},
	}
	back := roundTrip(t, r)
	if !back.Response || !back.Authoritative || !back.RecursionAvailable {
		t.Errorf("flags lost: %+v", back)
	}
	if !reflect.DeepEqual(back.Answers, r.Answers) {
		t.Errorf("answers mismatch:\n got %+v\nwant %+v", back.Answers, r.Answers)
	}
	if !reflect.DeepEqual(back.Authority, r.Authority) {
		t.Errorf("authority mismatch:\n got %+v\nwant %+v", back.Authority, r.Authority)
	}
}

func TestECSRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		prefix string
		scope  uint8
	}{
		{"192.0.2.0/24", 0},
		{"10.0.0.0/8", 0},
		{"203.0.113.128/25", 25},
		{"0.0.0.0/0", 0},
		{"198.51.100.0/22", 16},
	} {
		q := NewQuery(9, "www.youtube.com", TypeA).WithECS(netx.MustParsePrefix(tc.prefix))
		q.EDNS.ECS.ScopePrefixLen = tc.scope
		back := roundTrip(t, q)
		if back.EDNS == nil || back.EDNS.ECS == nil {
			t.Fatalf("%s: ECS lost in round trip", tc.prefix)
		}
		got := back.EDNS.ECS
		want := netx.MustParsePrefix(tc.prefix)
		if got.SourcePrefix() != want {
			t.Errorf("%s: source prefix = %v", tc.prefix, got.SourcePrefix())
		}
		if got.ScopePrefixLen != tc.scope {
			t.Errorf("%s: scope = %d, want %d", tc.prefix, got.ScopePrefixLen, tc.scope)
		}
	}
}

func TestECSHostBitsZeroedOnWire(t *testing.T) {
	// RFC 7871 §6: bits beyond SOURCE PREFIX-LENGTH must be zero.
	q := NewQuery(1, "example.com", TypeA)
	q.EDNS = &EDNS{UDPSize: 4096, ECS: &ECS{SourcePrefixLen: 24, Addr: netx.MustParseAddr("192.0.2.77")}}
	back := roundTrip(t, q)
	if got := back.EDNS.ECS.Addr; got != netx.MustParseAddr("192.0.2.0") {
		t.Errorf("host bits survived: %v", got)
	}
}

func TestReplyMirrorsECS(t *testing.T) {
	q := NewQuery(5, "facebook.com", TypeA).WithECS(netx.MustParsePrefix("198.51.100.0/24"))
	r := q.Reply()
	if r.EDNS == nil || r.EDNS.ECS == nil {
		t.Fatal("Reply dropped ECS")
	}
	r.EDNS.ECS.ScopePrefixLen = 16
	if q.EDNS.ECS.ScopePrefixLen != 0 {
		t.Error("Reply shares ECS struct with query")
	}
	if r.ID != q.ID || !r.Response {
		t.Errorf("Reply header wrong: %+v", r)
	}
}

func TestNameCompression(t *testing.T) {
	r := &Message{
		ID:       1,
		Response: true,
		Questions: []Question{
			{Name: "a.very.long.example.domain.com", Type: TypeA, Class: ClassINET},
		},
	}
	for i := 0; i < 10; i++ {
		r.Answers = append(r.Answers, RR{
			Name: "a.very.long.example.domain.com", Class: ClassINET, TTL: 60,
			Data: A{Addr: netx.Addr(i)},
		})
	}
	wire, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Uncompressed, each of the 10 answer names would be 32 bytes and the
	// message ~510 bytes; with compression each is a 2-byte pointer and the
	// whole message is 208 bytes.
	if len(wire) > 220 {
		t.Errorf("message with repeated names is %d bytes; compression not working", len(wire))
	}
	back, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range back.Answers {
		if rr.Name != "a.very.long.example.domain.com" {
			t.Fatalf("decompressed name %q", rr.Name)
		}
	}
}

// TestValidateName checks the encoder's checkName against ValidateName,
// the string-splitting reference: same verdict, same error text.
func TestValidateName(t *testing.T) {
	cases := []struct {
		name string
		ok   bool
	}{
		{"www.example.com", true},
		{"WWW.Example.com.", true},
		{"", true},
		{"a..b", false},
		{strings.Repeat("a", 64) + ".com", false},
		{strings.Repeat("a.", 127) + "a", false},
	}
	for _, c := range cases {
		err := ValidateName(c.name)
		if (err == nil) != c.ok {
			t.Errorf("ValidateName(%q) = %v, want ok=%v", c.name, err, c.ok)
		}
		if got := checkName(CanonicalName(c.name)); fmt.Sprint(got) != fmt.Sprint(err) {
			t.Errorf("checkName(%q) = %v, ValidateName says %v", c.name, got, err)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x01},
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, // claims 1 question, no data
		bytes.Repeat([]byte{0xC0}, 20),       // pointer storm
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: garbage decoded successfully", i)
		}
	}
}

func TestUnmarshalPointerLoop(t *testing.T) {
	// Header + a name that is a pointer to itself at offset 12.
	msg := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0xC0, 12, // pointer to itself
		0, 1, 0, 1,
	}
	if _, err := Unmarshal(msg); err == nil {
		t.Error("self-referential pointer accepted")
	}
}

func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		// Must not panic; errors are fine.
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMarshalUnmarshalQuick(t *testing.T) {
	f := func(id uint16, addr uint32, ttl uint32, srcLen uint8) bool {
		srcBits := int(srcLen % 33)
		q := NewQuery(id, "quick.example.org", TypeA).WithECS(netx.PrefixFrom(netx.Addr(addr), srcBits))
		r := q.Reply()
		r.Answers = []RR{{Name: "quick.example.org", Class: ClassINET, TTL: ttl, Data: A{Addr: netx.Addr(addr)}}}
		wire, err := r.Marshal()
		if err != nil {
			return false
		}
		back, err := Unmarshal(wire)
		if err != nil {
			return false
		}
		a, ok := back.Answers[0].Data.(A)
		return ok && a.Addr == netx.Addr(addr) &&
			back.Answers[0].TTL == ttl &&
			back.ID == id &&
			back.EDNS != nil && back.EDNS.ECS != nil &&
			int(back.EDNS.ECS.SourcePrefixLen) == srcBits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTCPFraming(t *testing.T) {
	var buf bytes.Buffer
	q1 := NewQuery(1, "a.example.com", TypeA)
	q2 := NewQuery(2, "b.example.com", TypeTXT)
	if err := WriteTCP(&buf, q1); err != nil {
		t.Fatal(err)
	}
	if err := WriteTCP(&buf, q2); err != nil {
		t.Fatal(err)
	}
	m1, err := ReadTCP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ReadTCP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m1.ID != 1 || m2.ID != 2 {
		t.Errorf("IDs = %d, %d", m1.ID, m2.ID)
	}
	if m2.Question().Type != TypeTXT {
		t.Errorf("second question type = %v", m2.Question().Type)
	}
	if _, err := ReadTCP(&buf); err == nil {
		t.Error("ReadTCP on empty stream succeeded")
	}
}

func TestRawRDataRoundTrip(t *testing.T) {
	r := &Message{ID: 3, Response: true}
	r.Answers = []RR{{Name: "x.example", Class: ClassINET, TTL: 1,
		Data: Raw{RRType: Type(99), Data: []byte{1, 2, 3, 4}}}}
	back := roundTrip(t, r)
	raw, ok := back.Answers[0].Data.(Raw)
	if !ok || raw.RRType != Type(99) || !bytes.Equal(raw.Data, []byte{1, 2, 3, 4}) {
		t.Errorf("raw rdata mismatch: %+v", back.Answers[0].Data)
	}
}

func TestRCodeStrings(t *testing.T) {
	if RCodeNXDomain.String() != "NXDOMAIN" || RCodeSuccess.String() != "NOERROR" {
		t.Error("unexpected RCode strings")
	}
	if TypeA.String() != "A" || Type(200).String() != "TYPE200" {
		t.Error("unexpected Type strings")
	}
}

func BenchmarkMarshalQuery(b *testing.B) {
	q := NewQuery(1, "www.google.com", TypeA).WithECS(netx.MustParsePrefix("192.0.2.0/24"))
	q.RecursionDesired = false
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalResponse(b *testing.B) {
	q := NewQuery(1, "www.google.com", TypeA).WithECS(netx.MustParsePrefix("192.0.2.0/24"))
	r := q.Reply()
	r.Answers = []RR{{Name: "www.google.com", Class: ClassINET, TTL: 300, Data: A{Addr: 0x01020304}}}
	wire, err := r.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// ValidateName checks that name is encodable: non-empty labels of at most
// 63 bytes and a total encoded length within 255 bytes. The root name ""
// is valid. It is the reference checkName must agree with.
func ValidateName(name string) error {
	name = CanonicalName(name)
	if name == "" {
		return nil
	}
	if len(name) > 253 {
		return fmt.Errorf("%w: %q too long", errName, name)
	}
	for _, label := range strings.Split(name, ".") {
		if len(label) == 0 {
			return fmt.Errorf("%w: empty label in %q", errName, name)
		}
		if len(label) > 63 {
			return fmt.Errorf("%w: label too long in %q", errName, name)
		}
	}
	return nil
}

// TestSetQueryCanonicalMatchesSetQuery: for a name in canonical form the
// trusting setter builds the message SetQuery builds, field for field and
// byte for byte on the wire; for any other name, SetQuery equals the
// trusting setter on the name's canonical form.
func TestSetQueryCanonicalMatchesSetQuery(t *testing.T) {
	scope := netx.MustParsePrefix("203.0.113.0/22")
	for _, name := range []string{"en.wikipedia.org", "www.google.com", "a", "", "En.Wikipedia.ORG", "example.com."} {
		canon := CanonicalName(name)
		var a, b Message
		b.SetQuery(1, "stale.example", TypeTXT) // reuse must clear it
		a.SetQuery(513, name, TypeA).WithECS(scope)
		b.SetQueryCanonical(513, canon, TypeA).WithECS(scope)
		a.EDNS, b.EDNS = nil, nil // compared below; the pointers differ
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%q: SetQueryCanonical = %+v, SetQuery = %+v", name, b, a)
		}
		a.WithECS(scope)
		b.WithECS(scope)
		wa, errA := a.Marshal()
		wb, errB := b.Marshal()
		if (errA == nil) != (errB == nil) || !bytes.Equal(wa, wb) {
			t.Fatalf("%q: wire %x (%v), want %x (%v)", name, wb, errB, wa, errA)
		}
	}
}
