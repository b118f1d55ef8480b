// Package netgraph models the directed graph that a network topology
// induces (paper §3.2): nodes are switches (or, for composite match
// conditions such as input ports, per-port expansions of a switch, §4.1),
// and links are the directed edges along which rules forward packets.
//
// Delta-net's edge-labelled graph assigns atom sets to these links; the
// graph itself is a plain adjacency structure shared by the Delta-net
// engine, the Veriflow-RI baseline, the dataset generators and the SDN-IP
// simulator.
package netgraph

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node in the graph. Ids are dense and start at 0.
type NodeID int32

// LinkID identifies a directed link. Ids are dense and start at 0.
type LinkID int32

// None is the absent node/link sentinel.
const (
	NoNode NodeID = -1
	NoLink LinkID = -1
)

// Link is one directed edge from Src to Dst.
type Link struct {
	ID  LinkID
	Src NodeID
	Dst NodeID
}

// Graph is a growable directed multigraph. Not safe for concurrent
// mutation, with two carve-outs: the name table has its own lock, so
// NodeName and NodeByName may race an AddNode (watch streamers render
// names while a connection grows the topology), and NumNodes and NumLinks
// read atomic counters, so they may race AddNode and AddLink (the server
// admits frames against the graph's size without the engine lock).
type Graph struct {
	// nameMu guards names and byName only.
	//
	//deltanet:lockrank 10
	nameMu    sync.RWMutex
	names     []string
	byName    map[string]NodeID
	links     []Link
	out       [][]LinkID // outgoing links per node
	in        [][]LinkID // incoming links per node
	linkIndex map[[2]NodeID]LinkID

	dropNode           NodeID            // lazily created global sink for drop rules
	dropLinks          map[NodeID]LinkID // per-source drop links
	numNodes, numLinks atomic.Int32      // stored once an addition is complete
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		byName:    map[string]NodeID{},
		linkIndex: map[[2]NodeID]LinkID{},
		dropNode:  NoNode,
		dropLinks: map[NodeID]LinkID{},
	}
}

// AddNode creates a node with the given name and returns its id. If a node
// with the name already exists, its existing id is returned.
func (g *Graph) AddNode(name string) NodeID {
	g.nameMu.Lock()
	if id, ok := g.byName[name]; ok {
		g.nameMu.Unlock()
		return id
	}
	id := NodeID(len(g.names))
	g.names = append(g.names, name)
	g.byName[name] = id
	g.nameMu.Unlock()
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.numNodes.Store(int32(id) + 1)
	return id
}

// NodeByName returns the id of the named node, or NoNode. Safe to call
// concurrently with AddNode.
func (g *Graph) NodeByName(name string) NodeID {
	g.nameMu.RLock()
	defer g.nameMu.RUnlock()
	if id, ok := g.byName[name]; ok {
		return id
	}
	return NoNode
}

// NodeName returns the node's name. Safe to call concurrently with
// AddNode.
func (g *Graph) NodeName(id NodeID) string {
	g.nameMu.RLock()
	defer g.nameMu.RUnlock()
	if int(id) < 0 || int(id) >= len(g.names) {
		return fmt.Sprintf("node#%d", id)
	}
	return g.names[id]
}

// NumNodes returns the number of nodes (including the drop sink once
// created). Safe to call concurrently with AddNode.
func (g *Graph) NumNodes() int { return int(g.numNodes.Load()) }

// NumLinks returns the number of directed links (including drop links once
// created). Safe to call concurrently with AddLink.
func (g *Graph) NumLinks() int { return int(g.numLinks.Load()) }

// AddLink creates a directed link from src to dst and returns its id. If a
// link between the pair already exists it is reused (the data plane only
// needs one edge per ordered pair; rules forwarding the same way share it).
func (g *Graph) AddLink(src, dst NodeID) LinkID {
	key := [2]NodeID{src, dst}
	if id, ok := g.linkIndex[key]; ok {
		return id
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, Src: src, Dst: dst})
	g.out[src] = append(g.out[src], id)
	g.in[dst] = append(g.in[dst], id)
	g.linkIndex[key] = id
	g.numLinks.Store(int32(id) + 1)
	return id
}

// FindLink returns the link from src to dst if one exists.
func (g *Graph) FindLink(src, dst NodeID) LinkID {
	if id, ok := g.linkIndex[[2]NodeID{src, dst}]; ok {
		return id
	}
	return NoLink
}

// Link returns the link record for id.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Out returns the outgoing link ids of a node. The slice is owned by the
// graph; callers must not mutate it.
func (g *Graph) Out(n NodeID) []LinkID { return g.out[n] }

// In returns the incoming link ids of a node. The slice is owned by the
// graph; callers must not mutate it.
func (g *Graph) In(n NodeID) []LinkID { return g.in[n] }

// Links returns all links. The slice is owned by the graph.
func (g *Graph) Links() []Link { return g.links }

// DropLink returns the link from src into the global drop sink, creating
// the sink and the link on first use. Drop rules (e.g. the paper's rH in
// Table 1) forward along this link; the sink has no outgoing edges, so
// dropped traffic can never participate in a forwarding loop.
func (g *Graph) DropLink(src NodeID) LinkID {
	if id, ok := g.dropLinks[src]; ok {
		return id
	}
	if g.dropNode == NoNode {
		g.dropNode = g.AddNode("__drop__")
	}
	id := g.AddLink(src, g.dropNode)
	g.dropLinks[src] = id
	return id
}

// DropNode returns the global sink node id, or NoNode if no drop rule has
// been installed yet.
func (g *Graph) DropNode() NodeID { return g.dropNode }

// SetDropNode marks an existing node as the global drop sink and
// re-derives the per-source drop-link table from the current links. It
// is the restore path for graphs rebuilt from a serialized dump, where
// the sink and its links come back as plain node/link rows and the drop
// bookkeeping must be reattached for IsDropLink and the black-hole
// checks to keep treating them specially.
func (g *Graph) SetDropNode(id NodeID) {
	g.dropNode = id
	for _, l := range g.links {
		if l.Dst == id {
			g.dropLinks[l.Src] = l.ID
		}
	}
}

// IsDropLink reports whether the link leads into the drop sink.
func (g *Graph) IsDropLink(id LinkID) bool {
	return g.dropNode != NoNode && g.links[id].Dst == g.dropNode
}

// PortNode returns the id of the composite node "switch@port", creating it
// on demand. This implements §4.1's encoding of non-wildcard extra match
// fields: a switch with rules matching three input ports becomes three
// separate nodes in the edge-labelled graph.
func (g *Graph) PortNode(sw string, port int) NodeID {
	return g.AddNode(fmt.Sprintf("%s@%d", sw, port))
}

// Clone returns an independent copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	g.nameMu.RLock()
	c.names = append([]string(nil), g.names...)
	for name, id := range g.byName {
		c.byName[name] = id
	}
	g.nameMu.RUnlock()
	c.links = append([]Link(nil), g.links...)
	c.out = make([][]LinkID, len(g.out))
	for i := range g.out {
		c.out[i] = append([]LinkID(nil), g.out[i]...)
	}
	c.in = make([][]LinkID, len(g.in))
	for i := range g.in {
		c.in[i] = append([]LinkID(nil), g.in[i]...)
	}
	for k, v := range g.linkIndex {
		c.linkIndex[k] = v
	}
	c.dropNode = g.dropNode
	for k, v := range g.dropLinks {
		c.dropLinks[k] = v
	}
	c.numNodes.Store(int32(len(c.names)))
	c.numLinks.Store(int32(len(c.links)))
	return c
}
