package dnsnet

import (
	"context"
	"sync"
	"sync/atomic"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// MemNet is the in-memory transport: a registry of named handlers that
// exchanges messages by direct call. It deliberately round-trips every
// message through the wire codec so that simulation and socket transports
// exercise identical encode/decode paths — a malformed message fails the
// same way on both.
//
// The handler table is copy-on-write: Register and Deregister replace the
// whole map under mu, and Exchange loads it atomically. An exchange is
// then a pure read of shared memory — a read lock would write its reader
// count on every probe, on a cache line every worker shares.
type MemNet struct {
	mu      sync.Mutex
	servers atomic.Pointer[map[string]Handler]
	codec   bool
}

// NewMemNet returns an empty in-memory network. If wireCodec is true,
// messages are marshaled and unmarshaled on each hop (slower, maximally
// faithful); if false they are passed by deep-enough copy (fast path used
// by full-scale campaigns).
func NewMemNet(wireCodec bool) *MemNet {
	n := &MemNet{codec: wireCodec}
	n.servers.Store(&map[string]Handler{})
	return n
}

// Register mounts h at name, replacing any previous handler.
func (n *MemNet) Register(name string, h Handler) {
	n.update(func(m map[string]Handler) { m[name] = h })
}

// Deregister removes the handler at name.
func (n *MemNet) Deregister(name string) {
	n.update(func(m map[string]Handler) { delete(m, name) })
}

// update publishes a modified copy of the handler table.
func (n *MemNet) update(edit func(map[string]Handler)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	old := *n.servers.Load()
	next := make(map[string]Handler, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	edit(next)
	n.servers.Store(&next)
}

// Client returns an Exchanger whose queries appear to come from src.
func (n *MemNet) Client(src netx.Addr) Exchanger {
	return &memClient{net: n, src: src}
}

type memClient struct {
	net *MemNet
	src netx.Addr
}

// Exchange implements Exchanger.
func (c *memClient) Exchange(ctx context.Context, server string, query *dnswire.Message) (*dnswire.Message, error) {
	h, ok := (*c.net.servers.Load())[server]
	if !ok {
		return nil, ErrNoSuchServer
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The codec round trips run on pooled wire buffers and pooled
	// messages: a decoded message never aliases the wire buffer it was
	// parsed from, so the buffer is recycled as soon as decoding returns.
	// The handler's own response is left to the GC here — handlers may
	// return shared messages, so this hop must not recycle them.
	q := query
	if c.net.codec {
		bp := dnswire.AcquireBuf()
		wire, err := query.AppendMarshal((*bp)[:0])
		*bp = wire[:0] // keep a grown buffer for the pool
		if err != nil {
			dnswire.ReleaseBuf(bp)
			return nil, err
		}
		q = dnswire.AcquireMessage()
		err = dnswire.UnmarshalInto(q, wire)
		dnswire.ReleaseBuf(bp)
		if err != nil {
			dnswire.ReleaseMessage(q)
			return nil, err
		}
	}
	resp := h.ServeDNS(ctx, c.src, q)
	if c.net.codec {
		dnswire.ReleaseMessage(q)
	}
	if resp == nil {
		return nil, ErrTimeout
	}
	if c.net.codec {
		bp := dnswire.AcquireBuf()
		wire, err := resp.AppendMarshal((*bp)[:0])
		*bp = wire[:0] // keep a grown buffer for the pool
		if err != nil {
			dnswire.ReleaseBuf(bp)
			return nil, err
		}
		m := dnswire.AcquireMessage()
		err = dnswire.UnmarshalInto(m, wire)
		dnswire.ReleaseBuf(bp)
		if err != nil {
			dnswire.ReleaseMessage(m)
			return nil, err
		}
		resp = m
	}
	if resp.ID != query.ID {
		if c.net.codec {
			dnswire.ReleaseMessage(resp)
		}
		return nil, ErrIDMismatch
	}
	return resp, nil
}
