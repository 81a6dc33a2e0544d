// Package dnsnet carries DNS messages between the components of the
// measurement system. It provides two interchangeable transports:
//
//   - a real transport over UDP and TCP sockets (net package), used by the
//     live probing tools and the loopback integration tests, and
//   - an in-memory transport used by the simulation, where a whole probing
//     campaign must execute millions of exchanges per second.
//
// Servers are expressed as Handlers, mirroring net/http: the authoritative
// servers, the Google Public DNS simulator and the root servers all
// implement Handler and can be mounted on either transport.
package dnsnet

import (
	"context"
	"errors"

	"clientmap/internal/dnswire"
	"clientmap/internal/netx"
)

// Handler responds to DNS queries. from is the source address the server
// sees (for anycast routing and trace capture). A nil response means the
// query is dropped, which clients observe as a timeout.
//
// Server calls the handler on the goroutine that read the query, with a
// query Message it decodes the next query into: a handler retains neither
// the message nor its slices past its return, and returns promptly — one
// that blocks holds up a share of the socket's traffic.
type Handler interface {
	ServeDNS(ctx context.Context, from netx.Addr, query *dnswire.Message) *dnswire.Message
}

// Appender is the optional append form of a Handler, which Server prefers
// on both transports: the reply's wire bytes are appended to dst and the
// extended slice returned, and returning dst unextended drops the query.
// The Handler contract holds for it too.
type Appender interface {
	AppendDNS(dst []byte, from netx.Addr, query *dnswire.Message) []byte
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx context.Context, from netx.Addr, query *dnswire.Message) *dnswire.Message

// ServeDNS implements Handler.
func (f HandlerFunc) ServeDNS(ctx context.Context, from netx.Addr, query *dnswire.Message) *dnswire.Message {
	return f(ctx, from, query)
}

// Exchanger performs DNS exchanges against a named server. Server names
// are transport-specific: "host:port" strings for socket transports,
// registry keys for the in-memory transport.
type Exchanger interface {
	Exchange(ctx context.Context, server string, query *dnswire.Message) (*dnswire.Message, error)
}

// Errors shared by the transports.
var (
	ErrTimeout      = errors.New("dnsnet: query timed out")
	ErrNoSuchServer = errors.New("dnsnet: no such server")
	ErrIDMismatch   = errors.New("dnsnet: response ID does not match query")
	ErrRateLimited  = errors.New("dnsnet: rate limited by server")
	ErrServerClosed = errors.New("dnsnet: server closed")
)
