package deltanet

import "deltanet/internal/monitor"

// This file exposes the incremental invariant monitor: standing queries
// that are re-checked per delta rather than recomputed from scratch.
// Register invariants on Checker.Monitor(); every subsequent InsertRule,
// RemoveRule or ApplyBatch marks the invariants whose dependency sets
// intersect the update's changed labels as dirty, re-evaluates only
// those, and reports Violation/Cleared transitions in Report.Events and
// to subscribers.

type (
	// Monitor maintains standing invariants over the checker's network.
	Monitor = monitor.Monitor
	// Invariant is a standing property the monitor keeps checked; build
	// one with the Watch* constructors.
	Invariant = monitor.Spec
	// InvariantID identifies a registered invariant.
	InvariantID = monitor.ID
	// InvariantStatus is a cached verdict: InvariantHolds or
	// InvariantViolated.
	InvariantStatus = monitor.Status
	// MonitorEvent is one verdict transition (violation or clearing).
	MonitorEvent = monitor.Event
	// MonitorStats summarizes the monitor's incremental work.
	MonitorStats = monitor.Stats
	// MonitorSubscription delivers events to one consumer; see
	// Monitor.Subscribe.
	MonitorSubscription = monitor.Subscription
)

// Re-exported verdict and transition constants.
const (
	InvariantHolds    = monitor.Holds
	InvariantViolated = monitor.Violated
	MonitorViolation  = monitor.Violation
	MonitorCleared    = monitor.Cleared
)

// WatchReachable asserts that at least one packet can flow from one
// switch to another.
func WatchReachable(from, to SwitchID) Invariant {
	return monitor.Reachable{From: from, To: to}
}

// WatchWaypoint asserts that every packet flowing between two switches
// traverses the waypoint.
func WatchWaypoint(from, to, via SwitchID) Invariant {
	return monitor.Waypoint{From: from, To: to, Via: via}
}

// WatchIsolated asserts that no packet can flow from any switch in
// groupA to any switch in groupB.
func WatchIsolated(groupA, groupB []SwitchID) Invariant {
	return monitor.Isolated{GroupA: groupA, GroupB: groupB}
}

// WatchLoopFree asserts that the data plane contains no forwarding
// loops.
func WatchLoopFree() Invariant { return monitor.LoopFree{} }

// WatchBlackHoleFree asserts that no switch silently discards traffic it
// receives; sinks lists switches that legitimately terminate flows.
func WatchBlackHoleFree(sinks map[SwitchID]bool) Invariant {
	return monitor.BlackHoleFree{Sinks: sinks}
}

// FormatInvariant returns an invariant's canonical serialized form —
// the server wire grammar, extended with WatchBlackHoleFree's sink set
// — which ParseInvariant inverts. Use it to persist standing
// invariants; Checker.SnapshotInvariants serializes every registered
// one.
func FormatInvariant(inv Invariant) string { return monitor.FormatSpec(inv) }

// ParseInvariant parses the serialized invariant form produced by
// FormatInvariant (e.g. "reach 0 2", "waypoint 0 3 1",
// "isolated 0,1 4,5", "loopfree", "blackholefree sinks=2,5"). Switch
// ids are not validated against any topology; registering the result
// with a checker whose topology lacks them yields a trivially evaluated
// invariant, so validate ids first when parsing untrusted input.
func ParseInvariant(s string) (Invariant, error) { return monitor.ParseSpec(s) }

// SnapshotInvariants returns the serialized form of every registered
// standing invariant, in registration order — the monitor half of a
// durable snapshot, pairing with Snapshot's rules. It returns nil when
// no monitor was ever created.
func (c *Checker) SnapshotInvariants() []string {
	if c.monitor == nil {
		return nil
	}
	return c.monitor.SnapshotSpecs()
}

// RestoreInvariants parses and registers each serialized invariant
// (the SnapshotInvariants format), evaluating every one against the
// current data plane. Restoring after Restore(rules) therefore yields
// verdicts identical to a fresh full evaluation of the restored state.
// On a parse error, registration stops and the error is returned;
// already-registered invariants stay registered.
func (c *Checker) RestoreInvariants(specs []string) error {
	return c.Monitor().RestoreSpecs(specs)
}

// Monitor returns the checker's standing-invariant monitor, creating it
// on first use (its evaluation pass fans out over GOMAXPROCS workers).
// Once any invariant is registered, every update's Report (and
// BatchReport) carries the verdict transitions it caused in Events.
func (c *Checker) Monitor() *Monitor {
	if c.monitor == nil {
		c.monitor = monitor.New(c.net, 0)
	}
	return c.monitor
}
