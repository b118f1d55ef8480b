package core

// Appendix A of the paper illustrates that atoms induce a Boolean lattice:
// every Boolean combination of rule intervals is expressible as a union of
// atoms (Figure 9's Hasse diagram over the atoms of Figure 5). These tests
// verify the lattice structure computationally: closure of the
// atom-expressible sets under join (∪), meet (∩) and complement, and that
// every rule's interval is exactly representable — the property that makes
// checking "all Boolean combinations of IP prefix forwarding rules"
// possible without false alarms (§1, §3.1).

import (
	"math/rand"
	"testing"

	"deltanet/internal/bitset"
	"deltanet/internal/intervalmap"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
)

// TestPaperFigure9Lattice reproduces Appendix A: with the atoms of
// Figure 5 (α0=[0:10), α1=[10:12), α2=[12:16) over a 4-bit space plus the
// implicit remainder), the sets expressible as atom unions form a Boolean
// lattice with ⊤ = the union of all, ⊥ = ∅.
func TestPaperFigure9Lattice(t *testing.T) {
	g := netgraph.New()
	s := g.AddNode("s")
	l := g.AddLink(s, g.AddNode("d"))
	n := NewNetwork(g, Options{})
	// Table 1's rules over the [0:16) sub-space.
	n.InsertRule(Rule{ID: 1, Source: s, Link: l, Match: iv(10, 12), Priority: 2}) // rH
	n.InsertRule(Rule{ID: 2, Source: s, Link: l, Match: iv(0, 16), Priority: 1})  // rL

	// The three atoms of Figure 5.
	alpha0 := n.AtomOf(0)
	alpha1 := n.AtomOf(10)
	alpha2 := n.AtomOf(12)
	if alpha0 == alpha1 || alpha1 == alpha2 || alpha0 == alpha2 {
		t.Fatal("atoms not distinct")
	}

	// Figure 9's middle layer: {[0:12)}, {[0:10),[12:16)}, {[10:16)}.
	set := func(ids ...intAtom) *bitset.Set {
		b := bitset.New(8)
		for _, id := range ids {
			b.Add(int(id))
		}
		return b
	}
	top := set(alpha0, alpha1, alpha2)
	m1 := set(alpha0, alpha1) // [0:12)
	m2 := set(alpha0, alpha2) // [0:10) ∪ [12:16)
	m3 := set(alpha1, alpha2) // [10:16)

	// Complement within ⊤: each middle element's complement is an atom.
	for _, c := range []struct {
		m    *bitset.Set
		want intAtom
	}{{m1, alpha2}, {m2, alpha1}, {m3, alpha0}} {
		comp := top.Clone()
		comp.DifferenceWith(c.m)
		if comp.Len() != 1 || !comp.Contains(int(c.want)) {
			t.Fatalf("complement of %v = %v, want atom %d", c.m, comp, c.want)
		}
	}
	// Join of any two middle elements is ⊤; meet is a single atom.
	join := func(a, b *bitset.Set) *bitset.Set { j := a.Clone(); j.UnionWith(b); return j }
	if !join(m1, m2).Equal(top) || !join(m2, m3).Equal(top) {
		t.Fatal("join of middle elements should be top")
	}
	if bitset.Intersect(m1, m3).Len() != 1 {
		t.Fatal("meet of m1 and m3 should be one atom")
	}
	// Rule intervals are exactly expressible: ⟦rH⟧ = {α1}, ⟦rL⟧ = top.
	rh := set(n.AtomsOverlapping(iv(10, 12))...)
	rl := set(n.AtomsOverlapping(iv(0, 16))...)
	if rh.Len() != 1 || !rh.Contains(int(alpha1)) {
		t.Fatalf("⟦rH⟧=%v", rh)
	}
	if !rl.Equal(top) {
		t.Fatalf("⟦rL⟧=%v", rl)
	}
	// ⟦rL⟧ − ⟦rH⟧ (the packets rL actually matches, §3.1's example).
	eff := rl.Clone()
	eff.DifferenceWith(rh)
	if !eff.Equal(m2) {
		t.Fatalf("rL − rH = %v, want %v", eff, m2)
	}
}

type intAtom = intervalmap.AtomID

// TestLatticeClosureProperty: for random rule sets, every Boolean
// combination of rule intervals is exactly a union of atoms — no
// combination ever cuts through an atom. (This is the precision guarantee
// that rules out false alarms.)
func TestLatticeClosureProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	g := netgraph.New()
	s := g.AddNode("s")
	l := g.AddLink(s, g.AddNode("d"))
	n := NewNetwork(g, Options{})
	var rules []Rule
	for i := 0; i < 40; i++ {
		lo := uint64(rng.Intn(5000))
		r := Rule{ID: RuleID(i + 1), Source: s, Link: l,
			Match: iv(lo, lo+1+uint64(rng.Intn(5000))), Priority: Priority(i)}
		rules = append(rules, r)
		if _, err := n.InsertRule(r); err != nil {
			t.Fatal(err)
		}
	}
	// Random Boolean combinations evaluated pointwise must be constant
	// within every atom.
	for trial := 0; trial < 50; trial++ {
		a := rules[rng.Intn(len(rules))].Match
		b := rules[rng.Intn(len(rules))].Match
		c := rules[rng.Intn(len(rules))].Match
		f := func(x uint64) bool {
			// (a ∧ ¬b) ∨ c — an arbitrary combination.
			return (a.Contains(x) && !b.Contains(x)) || c.Contains(x)
		}
		n.ForEachAtom(func(_ intAtom, in ipnet.Interval) bool {
			v0 := f(in.Lo)
			// Probe several points inside the atom.
			for k := 0; k < 4; k++ {
				x := in.Lo + uint64(rng.Int63n(int64(in.Size())))
				if f(x) != v0 {
					t.Fatalf("combination not constant on atom %v", in)
				}
			}
			return true
		})
	}
}
