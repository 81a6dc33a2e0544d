package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// The load generator. All load comes from this one process, from one
// thread per generator CPU; queries are pre-encoded (plan.go) so the
// loops below do nothing per query but patch an ID, write, read and
// check.

const (
	// replyTimeout is how long a query may go unanswered before it
	// counts as failed.
	replyTimeout = time.Second
	// window is how many queries each closed-loop worker keeps in
	// flight: enough that the one CPU the daemon runs on never idles
	// waiting for the generator, so the loop measures what that CPU can
	// answer rather than how fast two processes wake each other.
	window = 8
)

// rcodes the daemon may answer a planned query with.
const (
	rcodeNoError  = 0
	rcodeNXDomain = 3
)

// phaseResult is what one load phase measured.
type phaseResult struct {
	sent   int64
	failed int64 // no reply within replyTimeout
	wrong  int64 // a reply that is not the expected answer
	slices *sliceCounter
	lat    latencyWindows // closed loop: one window per slice
	cpuS   []float64      // closed loop with cpuOf: the server's CPU seconds per slice
	late   []int64        // open loop only: how late each send was, ns
	wallS  float64        // open loop only: first send to last reply
}

func (r *phaseResult) merge(o *phaseResult) {
	r.sent += o.sent
	r.failed += o.failed
	r.wrong += o.wrong
	r.slices.add(o.slices)
	for len(r.lat) < len(o.lat) {
		r.lat = append(r.lat, nil)
	}
	for i, win := range o.lat {
		r.lat[i] = append(r.lat[i], win...)
	}
}

// checkDNS reports whether reply answers the query with the given ID the
// way the benchmark's own index says it must: same ID, a response, and
// NOERROR for an active target or NXDOMAIN for an inactive one.
func checkDNS(reply []byte, id uint16, active bool) bool {
	if len(reply) < 12 || binary.BigEndian.Uint16(reply) != id || reply[2]&0x80 == 0 {
		return false
	}
	want := byte(rcodeNXDomain)
	if active {
		want = rcodeNoError
	}
	return reply[3]&0x0f == want
}

var (
	activeTrue  = []byte(`"active":true`)
	activeFalse = []byte(`"active":false`)
)

// checkHTTP reports whether a 200 body carries the expected active value.
func checkHTTP(status int, body []byte, active bool) bool {
	if status != 200 {
		return false
	}
	if active {
		return bytes.Contains(body, activeTrue)
	}
	return bytes.Contains(body, activeFalse)
}

// expectation is what a DNS reply is checked against.
type expectation int

const (
	wantPlanAnswer expectation = iota // the daemon: the plan's expected rcode
	wantSameBytes                     // the echo stub: the query itself
	wantNoError                       // a canned-reply server: an empty NOERROR reply
)

// check reports whether reply is right for the plan's query i sent under
// the given ID.
func (e expectation) check(p *plan, i int, id uint16, reply []byte) bool {
	switch e {
	case wantSameBytes:
		q := p.dnsQuery(i)
		return len(reply) == len(q) && binary.BigEndian.Uint16(reply) == id && bytes.Equal(reply[2:], q[2:])
	case wantNoError:
		return checkDNS(reply, id, true)
	}
	return checkDNS(reply, id, p.targets[i].active)
}

// pipe is one worker's connection(s) to the server: it can have several
// queries in flight, each identified by a tag.
type pipe interface {
	// send issues planned query i under tag.
	send(i int, tag uint16) error
	// recv waits for a reply and returns the tag it answers and whether
	// the answer is wrong. A reply that cannot be matched to a tag
	// returns ok=false.
	recv() (tag uint16, wrong, ok bool, err error)
	// resend asks the query in flight under tag once more. Only a
	// datagram transport can: it is what a resolver does when a query or
	// its reply is dropped on the way.
	resend(tag uint16) error
	close()
}

// loop describes one closed-loop phase: each worker keeps window queries
// in flight and sends the next only when a reply has arrived.
type loop struct {
	name    string
	workers int
	// Timed mode: the loop runs slices×sliceDur and counts completions
	// per slice. Count mode (limit > 0): the loop sends exactly limit
	// queries.
	slices   int
	sliceDur time.Duration
	limit    int
	// index maps the k-th query of the phase to its place in the plan.
	index func(k int) int
	dial  func() (pipe, error)
	// tr, when set, records sampled request spans under parent.
	tr     *tracer
	parent int64
	place  placement
	// cpuOf, when set, is the process whose CPU time is read at every
	// slice boundary of a timed loop.
	cpuOf int
}

func (l loop) run() (*phaseResult, error) {
	pipes := make([]pipe, l.workers)
	for w := range pipes {
		c, err := l.dial()
		if err != nil {
			for _, c := range pipes[:w] {
				c.close()
			}
			return nil, err
		}
		pipes[w] = c
	}
	slices := max(l.slices, 1)
	results := make([]*phaseResult, l.workers)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(time.Duration(slices) * l.sliceDur)
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer pipes[w].close()
			l.place.pinGenerator()
			results[w] = l.work(w, pipes[w], start, end, slices)
		}(w)
	}
	var cpuAt []float64
	if l.cpuOf != 0 && l.limit == 0 {
		cpuAt = make([]float64, 0, slices+1)
		for s := 0; s <= slices; s++ {
			time.Sleep(time.Until(start.Add(time.Duration(s) * l.sliceDur)))
			cpu, err := procCPU(l.cpuOf)
			if err != nil {
				cpuAt = nil
				break
			}
			cpuAt = append(cpuAt, cpu)
		}
	}
	wg.Wait()
	total := &phaseResult{slices: newSliceCounter(slices)}
	for s := 1; s < len(cpuAt); s++ {
		total.cpuS = append(total.cpuS, cpuAt[s]-cpuAt[s-1])
	}
	for _, r := range results {
		total.merge(r)
	}
	return total, nil
}

// work is one worker: queries w, w+workers, w+2·workers, … of the phase.
func (l loop) work(w int, c pipe, start, end time.Time, slices int) *phaseResult {
	res := &phaseResult{slices: newSliceCounter(slices), lat: make(latencyWindows, slices)}
	sentAt := make([]int64, 1<<16) // by tag; 0 = not in flight
	inFlight := 0
	retried := false
	k := w
	more := func(now time.Time) bool {
		if l.limit > 0 {
			return k < l.limit
		}
		return now.Before(end)
	}
	for now := time.Now(); ; now = time.Now() {
		for inFlight < window && more(now) {
			tag := uint16(k)
			if err := c.send(l.index(k), tag); err != nil {
				res.failed++
			} else {
				sentAt[tag] = now.UnixNano()
				inFlight++
			}
			res.sent++
			k += l.workers
		}
		if inFlight == 0 {
			return res
		}
		tag, wrong, ok, err := c.recv()
		t1 := time.Now()
		if err != nil {
			// Nothing for replyTimeout. What is in flight is asked once
			// more, the way a resolver retries; what then stays unanswered
			// is lost.
			if !retried {
				retried = true
				for tag, at := range sentAt {
					if at != 0 && c.resend(uint16(tag)) != nil {
						sentAt[tag] = 0
						inFlight--
						res.failed++
					}
				}
				continue
			}
			res.failed += int64(inFlight)
			inFlight = 0
			clear(sentAt)
			continue
		}
		if !ok || sentAt[tag] == 0 {
			continue // a straggler from a query already given up on
		}
		retried = false
		t0 := time.Unix(0, sentAt[tag])
		sentAt[tag] = 0
		inFlight--
		if wrong {
			res.wrong++
			continue
		}
		if l.limit == 0 {
			if s := int(t1.Sub(start) / l.sliceDur); s < slices {
				res.slices.counts[s]++
				res.lat[s] = append(res.lat[s], int64(t1.Sub(t0)))
				// Spans are recorded in every other slice, so a traced run
				// holds its own untraced control: the same phase, the same
				// seconds, alternating.
				if s%2 == 0 {
					l.tr.request(l.name, l.parent, t0, t1, res.sent)
				}
			}
		}
	}
}

// dnsPipe is one UDP socket sending pre-encoded queries; the tag is the
// DNS message ID.
type dnsPipe struct {
	conn *blockingConn
	plan *plan
	want expectation
	out  []byte
	in   []byte
	idx  []int32 // plan index by tag
}

func dialDNS(addr string, p *plan, want expectation) (*dnsPipe, error) {
	c, err := dialBlocking("udp", addr, replyTimeout)
	if err != nil {
		return nil, err
	}
	return &dnsPipe{conn: c, plan: p, want: want, out: make([]byte, 0, 512), in: make([]byte, 4096), idx: make([]int32, 1<<16)}, nil
}

func (c *dnsPipe) close() { c.conn.Close() }

func (c *dnsPipe) send(i int, tag uint16) error {
	c.out = append(c.out[:0], c.plan.dnsQuery(i)...)
	binary.BigEndian.PutUint16(c.out, tag)
	c.idx[tag] = int32(i)
	_, err := c.conn.Write(c.out)
	return err
}

func (c *dnsPipe) resend(tag uint16) error { return c.send(int(c.idx[tag]), tag) }

func (c *dnsPipe) recv() (tag uint16, wrong, ok bool, err error) {
	n, err := c.conn.Read(c.in)
	if err != nil {
		return 0, false, false, err
	}
	if n < 2 {
		return 0, false, false, nil
	}
	tag = binary.BigEndian.Uint16(c.in)
	return tag, !c.want.check(c.plan, int(c.idx[tag]), tag, c.in[:n]), true, nil
}

// httpPipe is a worker's set of keep-alive HTTP/1.1 connections, one
// request in flight on each, read back in the order they were asked. It
// speaks just enough of the protocol for the daemon's API — pre-encoded
// GETs out; status line, Content-Length and body back — because
// net/http's client would cost more CPU per request than the daemon
// spends answering it.
type httpPipe struct {
	plan  *plan
	conns []*httpConn
	// Requests in flight, oldest first: queue[head] is read next.
	queue      []httpPending
	head, tail int
}

type httpPending struct {
	conn int
	tag  uint16
	i    int
}

type httpConn struct {
	conn *blockingConn
	rd   *bufio.Reader
	body []byte
	busy bool
}

func dialHTTP(addr string, p *plan) (*httpPipe, error) {
	hp := &httpPipe{plan: p, queue: make([]httpPending, window)}
	for j := 0; j < window; j++ {
		c, err := dialBlocking("tcp", addr, replyTimeout)
		if err != nil {
			hp.close()
			return nil, err
		}
		hp.conns = append(hp.conns, &httpConn{conn: c, rd: bufio.NewReaderSize(c, 16<<10)})
	}
	return hp, nil
}

func (hp *httpPipe) close() {
	for _, c := range hp.conns {
		c.conn.Close()
	}
}

func (hp *httpPipe) send(i int, tag uint16) error {
	for j, c := range hp.conns {
		if c.busy {
			continue
		}
		if _, err := c.conn.Write(hp.plan.httpRequest(i)); err != nil {
			return err
		}
		c.busy = true
		hp.queue[hp.tail] = httpPending{conn: j, tag: tag, i: i}
		hp.tail = (hp.tail + 1) % len(hp.queue)
		return nil
	}
	return errors.New("every connection already has a request in flight")
}

func (hp *httpPipe) resend(uint16) error {
	return errors.New("an HTTP request that timed out is not asked again")
}

func (hp *httpPipe) recv() (tag uint16, wrong, ok bool, err error) {
	p := hp.queue[hp.head]
	hp.head = (hp.head + 1) % len(hp.queue)
	c := hp.conns[p.conn]
	c.busy = false
	status, body, err := c.response()
	if err != nil {
		return 0, false, false, err
	}
	return p.tag, !checkHTTP(status, body, hp.plan.httpActive[p.i]), true, nil
}

// response reads one response off the connection.
func (c *httpConn) response() (status int, body []byte, err error) {
	line, err := c.rd.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, errors.New("short status line")
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("status line %q: %w", line, err)
	}
	length := -1
	for {
		line, err := c.rd.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, fmt.Errorf("content length %q: %w", v, err)
			}
		}
	}
	if length < 0 {
		return 0, nil, errors.New("response without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.rd, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}

// openLoopDNS sends planned queries at a fixed rate for the given
// duration whatever the replies do. Each query's latency runs from the
// instant it was *due*, so a stall charges every query queued behind it;
// a query still unanswered replyTimeout after the last send is asked
// once more, as a resolver would, and counts as failed if that too goes
// unanswered. The sender's own lateness is reported beside the latencies,
// which come back cut into the given number of windows (a failed query
// counts as replyTimeout).
//
// One thread does it all: it spins to each due time — at these rates the
// gap between sends is shorter than the kernel's shortest dependable
// sleep, and the CPU spun on is the generator's own — and collects
// whatever replies have arrived while it spins, so no reply waits for a
// second thread to be scheduled.
func openLoopDNS(addr string, p *plan, rate float64, dur time.Duration, offset, windows int, want expectation, place placement) (*phaseResult, error) {
	conn, err := dialBlocking("udp", addr, replyTimeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	total := max(int(rate*dur.Seconds()), 1)
	interval := time.Duration(float64(time.Second) / rate)
	latNS := make([]int64, total) // from due time; 0 = no reply
	ok := make([]bool, total)
	lateNS := make([]int64, total)
	res := &phaseResult{sent: int64(total)}

	done := make(chan struct{})
	go func() {
		defer close(done)
		place.pinGenerator()
		start := time.Now()
		dueAt := func(seq int) time.Time { return start.Add(time.Duration(seq) * interval) }
		in := make([]byte, 4096)
		out := make([]byte, 0, 512)
		sent, got := 0, 0
		// note files the reply in[:n], read at now.
		note := func(n int, now time.Time) {
			if n < 2 {
				return
			}
			// Queries in flight are told apart by their 16-bit ID: the reply
			// belongs to the newest sent, still unanswered query carrying it.
			id := binary.BigEndian.Uint16(in)
			seq := -1
			for s := int(id); s < sent; s += 1 << 16 {
				if latNS[s] == 0 {
					seq = s
				}
			}
			if seq < 0 {
				return
			}
			latNS[seq] = max(int64(now.Sub(dueAt(seq))), 1)
			ok[seq] = want.check(p, (offset+seq)%p.len(), id, in[:n])
			got++
		}
		// After a stall the overdue queries go out at no more than twice
		// the nominal rate: all at once they would overflow the server's
		// socket buffer, and the benchmark would be counting its own burst.
		minGap := interval / 2
		var lastSend time.Time
		for seq := 0; seq < total; seq++ {
			at := dueAt(seq)
			if earliest := lastSend.Add(minGap); earliest.After(at) {
				at = earliest
			}
			for now := time.Now(); now.Before(at); now = time.Now() {
				if n, any := conn.tryRead(in); any {
					note(n, now)
				}
			}
			lastSend = time.Now()
			lateNS[seq] = int64(lastSend.Sub(dueAt(seq)))
			out = append(out[:0], p.dnsQuery((offset+seq)%p.len())...)
			binary.BigEndian.PutUint16(out, uint16(seq))
			sent = seq + 1
			conn.Write(out) // a failed write leaves the query unanswered, to be retried
		}
		drain := func() {
			for got < total {
				n, err := conn.Read(in)
				if err != nil {
					return // replyTimeout of silence
				}
				note(n, time.Now())
			}
		}
		drain()
		if got < total {
			for seq := 0; seq < total; seq++ {
				if latNS[seq] != 0 {
					continue
				}
				out = append(out[:0], p.dnsQuery((offset+seq)%p.len())...)
				binary.BigEndian.PutUint16(out, uint16(seq))
				conn.Write(out) // a failed write leaves the query unanswered
				for until := time.Now().Add(minGap); time.Now().Before(until); {
					if n, any := conn.tryRead(in); any {
						note(n, time.Now())
					}
				}
			}
			drain()
		}
		res.wallS = time.Since(start).Seconds()
	}()
	<-done

	res.late = lateNS
	for seq := 0; seq < total; seq++ {
		switch {
		case latNS[seq] == 0:
			res.failed++
			latNS[seq] = int64(replyTimeout)
		case !ok[seq]:
			res.wrong++
			latNS[seq] = int64(replyTimeout)
		}
	}
	res.lat = cutWindows(latNS, windows)
	return res, nil
}
