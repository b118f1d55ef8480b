package server

// This file is the server's construction API: New takes functional
// options, mirroring the top-level deltanet.Option idiom, in place of
// the post-construction setters (SetSlowUpdate / EnableMetrics) that
// used to be sprinkled between New and Serve. Options are collected
// first and wired in a fixed order — engine, slow-update log, journal,
// replica, metrics last — so
// option order never matters and the metric surface sees the final
// configuration (the replica lag gauges only exist when WithReplicaOf
// ran).

import (
	"io"
	"time"

	"deltanet/internal/core"
	"deltanet/internal/journal"
	"deltanet/internal/metrics"
)

// Option configures a Server at construction.
type Option func(*options)

type options struct {
	engine    core.Options
	slow      time.Duration
	slowLog   io.Writer
	jrnl      *journal.Journal
	replicaOf string
	ingCap    int
	reg       *metrics.Registry
}

// WithEngine sets the data-plane engine options (atom GC, match space).
func WithEngine(opts core.Options) Option {
	return func(o *options) { o.engine = opts }
}

// WithSlowUpdate logs updates whose traced pipeline stages sum past
// threshold to w (nil w counts without logging; threshold <= 0
// disables).
func WithSlowUpdate(threshold time.Duration, w io.Writer) Option {
	return func(o *options) { o.slow = threshold; o.slowLog = w }
}

// WithJournal makes the server append every applied mutation — topology
// ops, rule updates, whole batches — to j, each record stamped with the
// monitor's post-apply update sequence number. The journal is the
// replication substrate: the checkpoint and "journal since <offset>"
// protocol commands serve it to replicas, and a checkpoint + journal
// suffix is a complete local recovery story. The server does not close
// j; the caller owns its lifecycle (and rotation, see Journal.Rotate).
func WithJournal(j *journal.Journal) Option {
	return func(o *options) { o.jrnl = j }
}

// WithReplicaOf boots the server as a read replica of the primary at
// addr: Serve additionally starts a loop that fetches the primary's
// checkpoint, streams its journal tail, and applies the updates into
// this server's own data plane and monitor. Mutating protocol commands
// (node, link, I, R, B) are refused; reach/whatif/stats/W/watch
// serve locally from the replicated state. See replica.go.
func WithReplicaOf(addr string) Option {
	return func(o *options) { o.replicaOf = addr }
}

// WithIngestRing sets the capacity of the writer's ring (rounded up to
// a power of two; the default is generous for sustained feeds). The ring
// is the ingestion path's backpressure boundary: when it fills, binary
// connections get a "busy" line and block until the writer drains it.
func WithIngestRing(capacity int) Option {
	return func(o *options) { o.ingCap = capacity }
}

// WithMetrics registers the server's full metric surface with reg (the
// admin endpoint renders reg at /metrics). Applied after every other
// option so replica lag gauges and journal counters reflect the final
// configuration.
func WithMetrics(reg *metrics.Registry) Option {
	return func(o *options) { o.reg = reg }
}
