// Package client is the Go client for the dnserve wire protocol: a
// line-oriented TCP connection to a running Delta-net verification
// service (primary or read replica), with typed helpers for the common
// queries, a durable event watcher with multi-address failover
// (Watcher), and a strict Prometheus scrape of the admin endpoint
// (ScrapeMetrics).
//
// The protocol itself — one request line, one response line, except for
// the streaming commands — is documented in the README's Wire protocol
// section. Everything the typed helpers do not cover is reachable
// through Do (one round trip) and ReadLine (stream reads after a
// command such as "watch" puts the connection in streaming mode).
//
//	c, err := client.Dial("127.0.0.1:6633")
//	...
//	atoms, err := c.Reach("s1", "s4")
package client

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxLine mirrors the server's line limit: a response line (a status
// line naming a large node set, say) can be long, but never unbounded.
const maxLine = 1 << 20

// DialTimeout bounds how long Dial waits for the TCP connect.
const DialTimeout = 5 * time.Second

// A ProtocolError is a response line beginning "err": the server
// understood the connection but refused the request (unknown command,
// bad arguments, a mutation sent to a read replica, ...).
type ProtocolError struct {
	Req  string // the request line that was refused
	Resp string // the full "err ..." response line
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("dnserve: %s (request %q)", e.Resp, e.Req)
}

// Client is one protocol connection. Methods are safe for concurrent
// use; each Do is one atomic request/response round trip. A Client that
// entered streaming mode (the server side of a `watch`) belongs to the
// stream: use ReadLine and do not interleave Do calls. (`journal since`
// is not a line stream — its records are length-prefixed binary frames
// — and is spoken by replicas, not through this client.)
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	sc   *bufio.Scanner
}

// Dial connects to a dnserve instance at addr (host:port).
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (a net.Pipe end in tests,
// a dialed conn with custom options) as a protocol client.
func NewClient(conn net.Conn) *Client {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 4096), maxLine)
	return &Client{conn: conn, sc: sc}
}

// Close tears down the connection. The polite form is Quit.
func (c *Client) Close() error { return c.conn.Close() }

// Quit sends the protocol's quit and closes the connection.
func (c *Client) Quit() error {
	c.mu.Lock()
	_, werr := fmt.Fprintln(c.conn, "quit")
	c.mu.Unlock()
	if cerr := c.conn.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// Do sends one request line and returns the one response line. A
// response beginning "err" is returned as a *ProtocolError (with the
// raw line in Resp); transport failures are returned as-is.
func (c *Client) Do(req string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doLocked(req)
}

func (c *Client) doLocked(req string) (string, error) {
	if _, err := fmt.Fprintln(c.conn, req); err != nil {
		return "", err
	}
	resp, err := c.readLineLocked(req)
	if err != nil {
		return "", err
	}
	if strings.HasPrefix(resp, "err") {
		return resp, &ProtocolError{Req: req, Resp: resp}
	}
	return resp, nil
}

// ReadLine returns the next line the server sends — the stream reads
// after a command put the connection in streaming mode.
func (c *Client) ReadLine() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readLineLocked("stream")
}

func (c *Client) readLineLocked(what string) (string, error) {
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("dnserve: connection closed awaiting response to %q", what)
	}
	return c.sc.Text(), nil
}

// Reach asks how many atoms (disjoint address ranges) can flow from src
// to dst. Nodes are named by id or by name, as everywhere in the
// protocol.
func (c *Client) Reach(src, dst string) (atoms int, err error) {
	resp, err := c.Do(fmt.Sprintf("reach %s %s", src, dst))
	if err != nil {
		return 0, err
	}
	if _, err := fmt.Sscanf(resp, "ok reach %d", &atoms); err != nil {
		return 0, fmt.Errorf("dnserve: bad reach response %q", resp)
	}
	return atoms, nil
}

// WhatIf reports the impact of failing the link src->dst: how many
// atoms and labelled edges the failure subgraph touches.
func (c *Client) WhatIf(src, dst string) (atoms, edges int, err error) {
	return c.whatIf(fmt.Sprintf("whatif %s %s", src, dst))
}

// WhatIfLink is WhatIf addressed by link id instead of endpoints.
func (c *Client) WhatIfLink(link int) (atoms, edges int, err error) {
	return c.whatIf(fmt.Sprintf("whatif %d", link))
}

func (c *Client) whatIf(req string) (atoms, edges int, err error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, err
	}
	if _, err := fmt.Sscanf(resp, "ok whatif atoms=%d edges=%d", &atoms, &edges); err != nil {
		return 0, 0, fmt.Errorf("dnserve: bad whatif response %q", resp)
	}
	return atoms, edges, nil
}

// Stats returns the server's stats line as a key->value map (the keys
// are documented in the README's stats table; a journaling primary
// adds jrnl, a replica adds lag).
func (c *Client) Stats() (map[string]string, error) {
	resp, err := c.Do("stats")
	if err != nil {
		return nil, err
	}
	rest, ok := strings.CutPrefix(resp, "ok stats ")
	if !ok {
		return nil, fmt.Errorf("dnserve: bad stats response %q", resp)
	}
	stats := make(map[string]string)
	for _, f := range strings.Fields(rest) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("dnserve: bad stats field %q in %q", f, resp)
		}
		stats[k] = v
	}
	return stats, nil
}

// StatUint reads one numeric stats key, erroring if absent — the
// convenience for lag/upd polling loops.
func (c *Client) StatUint(key string) (uint64, error) {
	stats, err := c.Stats()
	if err != nil {
		return 0, err
	}
	v, ok := stats[key]
	if !ok {
		return 0, fmt.Errorf("dnserve: stats has no %q key", key)
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("dnserve: stats key %s=%q is not a number", key, v)
	}
	return n, nil
}
