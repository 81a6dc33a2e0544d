package dnswire

import (
	"bytes"
	"testing"

	"clientmap/internal/netx"
)

func benchQuery() *Message {
	q := NewQuery(0x1234, "en.wikipedia.org", TypeA)
	q.RecursionDesired = false
	return q.WithECS(netx.MustParsePrefix("203.0.113.0/24"))
}

func benchResponse() *Message {
	r := benchQuery().Reply()
	r.EDNS.ECS.ScopePrefixLen = 20
	r.Answers = append(r.Answers, RR{
		Name:  "en.wikipedia.org",
		Class: ClassINET,
		TTL:   300,
		Data:  A{Addr: netx.MustParseAddr("198.51.100.7")},
	})
	return r
}

// TestAppendMarshalMatchesMarshal pins that the append path produces the
// exact bytes Marshal always has, including name compression.
func TestAppendMarshalMatchesMarshal(t *testing.T) {
	msgs := []*Message{benchQuery(), benchResponse()}
	soa := NewQuery(9, "example.com", TypeSOA).Reply()
	soa.Authority = append(soa.Authority, RR{
		Name: "example.com", Class: ClassINET, TTL: 3600,
		Data: SOA{MName: "ns1.example.com", RName: "hostmaster.example.com", Serial: 1},
	})
	msgs = append(msgs, soa)
	for i, m := range msgs {
		want, err := m.Marshal()
		if err != nil {
			t.Fatalf("msg %d: Marshal: %v", i, err)
		}
		got, err := m.AppendMarshal(make([]byte, 0, 16))
		if err != nil {
			t.Fatalf("msg %d: AppendMarshal: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("msg %d: AppendMarshal bytes differ from Marshal\n got %x\nwant %x", i, got, want)
		}
	}
}

// TestUnmarshalIntoMatchesUnmarshal pins that decoding into a reused
// message yields the same structure as a fresh Unmarshal.
func TestUnmarshalIntoMatchesUnmarshal(t *testing.T) {
	wire, err := benchResponse().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	// Dirty the message first so reuse has state to clear.
	m.SetQuery(7, "stale.example", TypeTXT)
	if err := UnmarshalInto(&m, wire); err != nil {
		t.Fatal(err)
	}
	if m.ID != want.ID || m.Question() != want.Question() || len(m.Answers) != len(want.Answers) {
		t.Fatalf("UnmarshalInto = %+v, want %+v", m, *want)
	}
	if m.Answers[0] != want.Answers[0] {
		t.Errorf("answer = %+v, want %+v", m.Answers[0], want.Answers[0])
	}
	if m.EDNS == nil || m.EDNS.ECS == nil || *m.EDNS.ECS != *want.EDNS.ECS {
		t.Errorf("ECS = %+v, want %+v", m.EDNS, want.EDNS)
	}
}

// TestEncodeAllocs is the alloc-regression gate for the encode path:
// marshaling into a buffer with capacity must not allocate.
func TestEncodeAllocs(t *testing.T) {
	q := benchQuery()
	r := benchResponse()
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		buf, err = q.AppendMarshal(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf, err = r.AppendMarshal(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendMarshal allocates %.1f per run, want 0", allocs)
	}
}

// TestDecodeAllocs is the alloc-regression gate for the decode path: once
// the names are interned, decoding a typical probe response into a reused
// message costs at most the A-record interface box.
func TestDecodeAllocs(t *testing.T) {
	wire, err := benchResponse().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := UnmarshalInto(&m, wire); err != nil { // warm the intern table
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := UnmarshalInto(&m, wire); err != nil {
			t.Fatal(err)
		}
	})
	// One alloc budgeted: boxing A{Addr} into the RData interface.
	if allocs > 1 {
		t.Errorf("UnmarshalInto allocates %.1f per run, want <= 1", allocs)
	}
}

// TestQueryBuildAllocs gates the probe-side query construction: re-pointing
// a reused message at a new (id, name, scope) must not allocate.
func TestQueryBuildAllocs(t *testing.T) {
	m := AcquireMessage()
	defer ReleaseMessage(m)
	scope := netx.MustParsePrefix("198.51.100.0/24")
	m.SetQuery(1, "en.wikipedia.org", TypeA).WithECS(scope) // warm capacity
	allocs := testing.AllocsPerRun(1000, func() {
		m.SetQuery(42, "en.wikipedia.org", TypeA)
		m.RecursionDesired = false
		m.WithECS(scope)
		m.SetQueryCanonical(43, "en.wikipedia.org", TypeA).WithECS(scope)
	})
	if allocs != 0 {
		t.Errorf("SetQuery+WithECS allocates %.1f per run, want 0", allocs)
	}
}

// TestReplyIntoAllocs gates the server-side reply construction.
func TestReplyIntoAllocs(t *testing.T) {
	q := benchQuery()
	r := AcquireMessage()
	defer ReleaseMessage(r)
	q.ReplyInto(r)
	r.Answers = append(r.Answers, RR{}) // warm answer capacity
	addr := netx.MustParseAddr("198.51.100.7")
	var aBox RData = A{Addr: addr} // pre-boxed, as cache entries store it
	allocs := testing.AllocsPerRun(1000, func() {
		q.ReplyInto(r)
		r.Answers = append(r.Answers, RR{Name: q.Question().Name, Class: ClassINET, TTL: 300, Data: aBox})
	})
	if allocs != 0 {
		t.Errorf("ReplyInto allocates %.1f per run, want 0", allocs)
	}
}

func BenchmarkAppendMarshal(b *testing.B) {
	m := benchResponse()
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = m.AppendMarshal(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	m := benchResponse()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalInto(b *testing.B) {
	wire, err := benchResponse().Marshal()
	if err != nil {
		b.Fatal(err)
	}
	var m Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := UnmarshalInto(&m, wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	wire, err := benchResponse().Marshal()
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
