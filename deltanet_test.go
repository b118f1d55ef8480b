package deltanet

import (
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	c := New()
	s1 := c.AddSwitch("s1")
	s2 := c.AddSwitch("s2")
	s3 := c.AddSwitch("s3")
	l12 := c.AddLink(s1, s2)
	l23 := c.AddLink(s2, s3)

	rep, err := c.InsertPrefixRule(1, s1, l12, "10.0.0.0/8", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 0 || rep.Delta.Empty() {
		t.Fatalf("report %+v", rep)
	}
	if _, err := c.InsertPrefixRule(2, s2, l23, "10.0.0.0/8", 100); err != nil {
		t.Fatal(err)
	}
	if c.NumRules() != 2 || c.NumAtoms() < 2 {
		t.Fatalf("rules=%d atoms=%d", c.NumRules(), c.NumAtoms())
	}

	ranges := c.ReachableRanges(s1, s3)
	if len(ranges) != 1 {
		t.Fatalf("ranges=%v", ranges)
	}
	p, _ := ParsePrefix("10.0.0.0/8")
	if ranges[0] != p.Interval() {
		t.Fatalf("range %v want %v", ranges[0], p.Interval())
	}
	if c.ReachableAtoms(s3, s1).Len() != 0 {
		t.Fatal("reverse reachability")
	}
	if c.Switch("s2") != s2 || c.Switch("nope") != -1 {
		t.Fatal("Switch lookup")
	}
}

func TestLoopReporting(t *testing.T) {
	c := New()
	a, b := c.AddSwitch("a"), c.AddSwitch("b")
	ab, ba := c.AddLink(a, b), c.AddLink(b, a)
	if _, err := c.InsertPrefixRule(1, a, ab, "10.0.0.0/8", 1); err != nil {
		t.Fatal(err)
	}
	rep, err := c.InsertPrefixRule(2, b, ba, "10.0.0.0/8", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) == 0 {
		t.Fatal("loop not reported")
	}
	if len(c.FindLoops()) == 0 {
		t.Fatal("FindLoops misses it")
	}
	// Removing one side clears it.
	if _, err := c.RemoveRule(2); err != nil {
		t.Fatal(err)
	}
	if len(c.FindLoops()) != 0 {
		t.Fatal("loop survived removal")
	}
}

func TestWithoutLoopChecking(t *testing.T) {
	c := New(WithoutLoopChecking())
	a, b := c.AddSwitch("a"), c.AddSwitch("b")
	ab, ba := c.AddLink(a, b), c.AddLink(b, a)
	c.InsertPrefixRule(1, a, ab, "10.0.0.0/8", 1)
	rep, _ := c.InsertPrefixRule(2, b, ba, "10.0.0.0/8", 1)
	if len(rep.Loops) != 0 {
		t.Fatal("loops reported while disabled")
	}
	// Explicit scan still works.
	if len(c.FindLoops()) == 0 {
		t.Fatal("FindLoops should still find it")
	}
}

func TestWithAtomGC(t *testing.T) {
	c := New(WithAtomGC())
	a, b := c.AddSwitch("a"), c.AddSwitch("b")
	ab := c.AddLink(a, b)
	for i := 0; i < 50; i++ {
		if _, err := c.InsertPrefixRule(RuleID(i+1), a, ab, "10.0.0.0/24", Priority(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := c.RemoveRule(RuleID(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if c.NumAtoms() != 1 {
		t.Fatalf("atoms=%d want 1 after GC", c.NumAtoms())
	}
}

func TestDropRulesAndWhatIf(t *testing.T) {
	c := New()
	a, b := c.AddSwitch("a"), c.AddSwitch("b")
	ab := c.AddLink(a, b)
	if _, err := c.InsertPrefixRule(1, a, ab, "0.0.0.0/4", 1); err != nil {
		t.Fatal(err)
	}
	// Higher-priority drop rule for a sub-range.
	if _, err := c.InsertPrefixRule(2, a, NoLink, "0.0.0.0/8", 9); err != nil {
		t.Fatal(err)
	}
	atomDropped := c.AtomOf(0)
	if c.LinkLabel(ab).Contains(int(atomDropped)) {
		t.Fatal("dropped range still labelled")
	}
	sub := c.WhatIfLinkFails(ab)
	if sub.Affected.Contains(int(atomDropped)) {
		t.Fatal("dropped atom counted as affected")
	}
	if sub.NumEdges() != 1 {
		t.Fatalf("subgraph edges=%d", sub.NumEdges())
	}
	if in, ok := c.AtomRange(atomDropped); !ok || in.Lo != 0 {
		t.Fatalf("AtomRange=%v,%v", in, ok)
	}
}

func TestAllPairsReachabilityFacade(t *testing.T) {
	c := New()
	a, b, d := c.AddSwitch("a"), c.AddSwitch("b"), c.AddSwitch("c")
	ab := c.AddLink(a, b)
	bd := c.AddLink(b, d)
	c.InsertPrefixRule(1, a, ab, "10.0.0.0/8", 1)
	c.InsertPrefixRule(2, b, bd, "10.0.0.0/8", 1)
	serial := c.AllPairsReachability(false)
	par := c.AllPairsReachability(true)
	if serial[a][d].Empty() {
		t.Fatal("a cannot reach c in all-pairs")
	}
	if !serial[a][d].Equal(par[a][d]) {
		t.Fatal("serial/parallel disagree")
	}
}

func TestBadInputs(t *testing.T) {
	c := New()
	a := c.AddSwitch("a")
	b := c.AddSwitch("b")
	ab := c.AddLink(a, b)
	if _, err := c.InsertPrefixRule(1, a, ab, "garbage", 1); err == nil {
		t.Fatal("bad prefix accepted")
	}
	if _, err := c.RemoveRule(42); err == nil {
		t.Fatal("unknown rule removal accepted")
	}
	// A link or switch the topology does not have is an error, not a panic.
	if _, err := c.InsertRule(Rule{ID: 1, Source: a, Link: 7, Match: Interval{Lo: 0, Hi: 10}, Priority: 1}); err == nil {
		t.Fatal("unknown link accepted")
	}
	if _, err := c.InsertRule(Rule{ID: 1, Source: 9, Link: NoLink, Match: Interval{Lo: 0, Hi: 10}, Priority: 1}); err == nil {
		t.Fatal("drop rule on an unknown switch accepted")
	}
	if _, err := c.InsertPrefixRule(1, a, ab, "10.0.0.0/8", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertPrefixRule(1, a, ab, "10.0.0.0/8", 1); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if c.Network() == nil {
		t.Fatal("Network accessor")
	}
	if c.AddPort("a", 3) == c.AddPort("a", 4) {
		t.Fatal("ports collapsed")
	}
}
