package check

import (
	"runtime"
	"sync"

	"deltanet/internal/bitset"
	"deltanet/internal/core"
)

// AllPairs implements Algorithm 3 (paper §3.3): the Floyd–Warshall
// transitive closure of packet flows between all pairs of nodes, with the
// usual (min, +) operators replaced by (∪, ∩) over atom sets. The result
// R[i][j] is the set of atoms that can flow from node i to node j along
// one or more hops.
//
// Complexity is O(K·|V|³) bit operations, packed 64 per word (the paper
// notes this class of query is for pre-deployment testing rather than the
// per-update hot path). A routine induction on k shows R computes
// reachability of every α-packet, as in the paper's footnote 3.
func AllPairs(n *core.Network) [][]*bitset.Set {
	g := n.Graph()
	V := g.NumNodes()
	r := initAllPairs(n, V)
	for k := 0; k < V; k++ {
		rowK := r[k]
		for i := 0; i < V; i++ {
			rik := r[i][k]
			if rik.Empty() {
				continue
			}
			rowI := r[i]
			for j := 0; j < V; j++ {
				if i == j {
					continue
				}
				rowI[j].OrAnd(rik, rowK[j])
			}
		}
	}
	return r
}

// AllPairsParallel is AllPairs with the inner i-loop fanned out over
// goroutines per pivot k — the parallelization the paper's §6 points out
// is available because atom-set operations per (i, j) are independent for
// a fixed pivot. workers ≤ 0 selects GOMAXPROCS.
//
// Safety: during pass k, updates that target row k or column k are
// mathematically subsets of the existing sets (r[k][j] ∪= r[k][k] ∩ r[k][j]
// and r[i][k] ∪= r[i][k] ∩ r[k][k]), and bitset.OrAnd performs no store
// when nothing changes, so row k and column k are never written while
// other goroutines read them; every other cell is written only by the
// goroutine owning its row.
func AllPairsParallel(n *core.Network, workers int) [][]*bitset.Set {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := n.Graph()
	V := g.NumNodes()
	r := initAllPairs(n, V)
	var wg sync.WaitGroup
	for k := 0; k < V; k++ {
		rowK := r[k]
		rows := make(chan int, V)
		for i := 0; i < V; i++ {
			rows <- i
		}
		close(rows)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range rows {
					rik := r[i][k]
					if rik.Empty() {
						continue
					}
					rowI := r[i]
					for j := 0; j < V; j++ {
						if i != j {
							rowI[j].OrAnd(rik, rowK[j])
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	return r
}

func initAllPairs(n *core.Network, V int) [][]*bitset.Set {
	g := n.Graph()
	r := make([][]*bitset.Set, V)
	for i := range r {
		r[i] = make([]*bitset.Set, V)
		for j := range r[i] {
			r[i][j] = bitset.New(n.MaxAtomID())
		}
	}
	for _, l := range g.Links() {
		r[l.Src][l.Dst].UnionWith(n.Label(l.ID))
	}
	return r
}
