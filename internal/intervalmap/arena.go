package intervalmap

// arenaTree is an index-addressed red-black tree specialized to the
// boundary map's key/value types (uint64 bounds ↦ AtomID). Nodes live in
// one contiguous slice and refer to each other by int32 index instead of
// pointer, with -1 as nil. Deleted node slots are recycled through an
// intrusive free list threaded through the left field, so steady-state
// split/merge churn reuses slots instead of allocating.
//
// The layout matters for two reasons. First, the node arena is a single
// pointer-free allocation: the garbage collector never scans it, no
// matter how many boundaries the map holds (internal/rbtree allocates one
// heap node per key, each with three pointers for the GC to chase).
// Second, tree traversals walk a contiguous slice rather than scattered
// heap objects, which is kinder to the cache on the CreateAtoms /
// AtomsOverlapping hot paths. internal/rbtree stays as the differential
// oracle for this implementation (see intervalmap_oracle_test.go and
// FuzzIntervalMapFlat).
type arenaTree struct {
	nodes    []treeNode
	root     int32
	freeNode int32 // head of the free-slot list, threaded through left
	size     int
}

// treeNode is one arena slot. It contains no pointers so the backing
// slice is invisible to the garbage collector.
//
//deltanet:pointerfree
type treeNode struct {
	key                 uint64
	left, right, parent int32
	val                 AtomID
	color               uint8
}

const nilNode int32 = -1

const (
	red   uint8 = 0
	black uint8 = 1
)

func newArenaTree() arenaTree {
	return arenaTree{root: nilNode, freeNode: nilNode}
}

// newNode takes a slot from the free list or extends the arena. Fresh
// nodes are red, per the usual insertion scheme.
func (t *arenaTree) newNode(key uint64, val AtomID, parent int32) int32 {
	var i int32
	if t.freeNode != nilNode {
		i = t.freeNode
		t.freeNode = t.nodes[i].left
	} else {
		i = int32(len(t.nodes))
		t.nodes = append(t.nodes, treeNode{})
	}
	t.nodes[i] = treeNode{key: key, val: val, left: nilNode, right: nilNode, parent: parent, color: red}
	return i
}

func (t *arenaTree) freeSlot(i int32) {
	t.nodes[i] = treeNode{left: t.freeNode, right: nilNode, parent: nilNode}
	t.freeNode = i
}

func (t *arenaTree) len() int { return t.size }

func (t *arenaTree) find(key uint64) int32 {
	n := t.root
	for n != nilNode {
		nd := &t.nodes[n]
		switch {
		case key < nd.key:
			n = nd.left
		case key > nd.key:
			n = nd.right
		default:
			return n
		}
	}
	return nilNode
}

// insert stores val under key, replacing the value if the key exists,
// and returns key's node. The fix-up's rotations relink nodes without
// moving keys, so the node stays key's until key is deleted.
func (t *arenaTree) insert(key uint64, val AtomID) int32 {
	parent := nilNode
	n := t.root
	for n != nilNode {
		parent = n
		nd := &t.nodes[n]
		switch {
		case key < nd.key:
			n = nd.left
		case key > nd.key:
			n = nd.right
		default:
			nd.val = val
			return n
		}
	}
	i := t.newNode(key, val, parent)
	switch {
	case parent == nilNode:
		t.root = i
	case key < t.nodes[parent].key:
		t.nodes[parent].left = i
	default:
		t.nodes[parent].right = i
	}
	t.size++
	t.insertFixup(i)
	return i
}

func (t *arenaTree) insertFixup(n int32) {
	for {
		p := t.nodes[n].parent
		if p == nilNode || t.nodes[p].color != red {
			break
		}
		g := t.nodes[p].parent // grandparent exists: the root is black
		if p == t.nodes[g].left {
			u := t.nodes[g].right
			if u != nilNode && t.nodes[u].color == red {
				t.nodes[p].color = black
				t.nodes[u].color = black
				t.nodes[g].color = red
				n = g
				continue
			}
			if n == t.nodes[p].right {
				n = p
				t.rotateLeft(n)
				p = t.nodes[n].parent
			}
			t.nodes[p].color = black
			t.nodes[g].color = red
			t.rotateRight(g)
		} else {
			u := t.nodes[g].left
			if u != nilNode && t.nodes[u].color == red {
				t.nodes[p].color = black
				t.nodes[u].color = black
				t.nodes[g].color = red
				n = g
				continue
			}
			if n == t.nodes[p].left {
				n = p
				t.rotateRight(n)
				p = t.nodes[n].parent
			}
			t.nodes[p].color = black
			t.nodes[g].color = red
			t.rotateLeft(g)
		}
	}
	t.nodes[t.root].color = black
}

func (t *arenaTree) rotateLeft(x int32) {
	y := t.nodes[x].right
	yl := t.nodes[y].left
	t.nodes[x].right = yl
	if yl != nilNode {
		t.nodes[yl].parent = x
	}
	p := t.nodes[x].parent
	t.nodes[y].parent = p
	switch {
	case p == nilNode:
		t.root = y
	case x == t.nodes[p].left:
		t.nodes[p].left = y
	default:
		t.nodes[p].right = y
	}
	t.nodes[y].left = x
	t.nodes[x].parent = y
}

func (t *arenaTree) rotateRight(x int32) {
	y := t.nodes[x].left
	yr := t.nodes[y].right
	t.nodes[x].left = yr
	if yr != nilNode {
		t.nodes[yr].parent = x
	}
	p := t.nodes[x].parent
	t.nodes[y].parent = p
	switch {
	case p == nilNode:
		t.root = y
	case x == t.nodes[p].right:
		t.nodes[p].right = y
	default:
		t.nodes[p].left = y
	}
	t.nodes[y].right = x
	t.nodes[x].parent = y
}

// deleteNode removes z using the classic CLRS scheme, index-addressed,
// and puts its slot on the free list. It relinks z's successor into z's
// place instead of copying the successor's key into z, so every other key
// keeps its node.
func (t *arenaTree) deleteNode(z int32) {
	t.size--
	y := z
	yOrig := t.nodes[y].color
	var x, xParent int32
	switch {
	case t.nodes[z].left == nilNode:
		x = t.nodes[z].right
		xParent = t.nodes[z].parent
		t.transplant(z, x)
	case t.nodes[z].right == nilNode:
		x = t.nodes[z].left
		xParent = t.nodes[z].parent
		t.transplant(z, x)
	default:
		y = t.minFrom(t.nodes[z].right)
		yOrig = t.nodes[y].color
		x = t.nodes[y].right
		if t.nodes[y].parent == z {
			xParent = y
		} else {
			xParent = t.nodes[y].parent
			t.transplant(y, x)
			zr := t.nodes[z].right
			t.nodes[y].right = zr
			t.nodes[zr].parent = y
		}
		t.transplant(z, y)
		zl := t.nodes[z].left
		t.nodes[y].left = zl
		t.nodes[zl].parent = y
		t.nodes[y].color = t.nodes[z].color
	}
	if yOrig == black {
		t.deleteFixup(x, xParent)
	}
	t.freeSlot(z)
}

func (t *arenaTree) transplant(u, v int32) {
	p := t.nodes[u].parent
	switch {
	case p == nilNode:
		t.root = v
	case u == t.nodes[p].left:
		t.nodes[p].left = v
	default:
		t.nodes[p].right = v
	}
	if v != nilNode {
		t.nodes[v].parent = p
	}
}

func (t *arenaTree) isBlack(n int32) bool { return n == nilNode || t.nodes[n].color == black }

func (t *arenaTree) deleteFixup(x, parent int32) {
	for x != t.root && t.isBlack(x) {
		if parent == nilNode {
			break
		}
		if x == t.nodes[parent].left {
			w := t.nodes[parent].right
			if t.nodes[w].color == red {
				t.nodes[w].color = black
				t.nodes[parent].color = red
				t.rotateLeft(parent)
				w = t.nodes[parent].right
			}
			if t.isBlack(t.nodes[w].left) && t.isBlack(t.nodes[w].right) {
				t.nodes[w].color = red
				x = parent
				parent = t.nodes[x].parent
				continue
			}
			if t.isBlack(t.nodes[w].right) {
				t.nodes[t.nodes[w].left].color = black
				t.nodes[w].color = red
				t.rotateRight(w)
				w = t.nodes[parent].right
			}
			t.nodes[w].color = t.nodes[parent].color
			t.nodes[parent].color = black
			t.nodes[t.nodes[w].right].color = black
			t.rotateLeft(parent)
			x = t.root
			parent = nilNode
		} else {
			w := t.nodes[parent].left
			if t.nodes[w].color == red {
				t.nodes[w].color = black
				t.nodes[parent].color = red
				t.rotateRight(parent)
				w = t.nodes[parent].left
			}
			if t.isBlack(t.nodes[w].right) && t.isBlack(t.nodes[w].left) {
				t.nodes[w].color = red
				x = parent
				parent = t.nodes[x].parent
				continue
			}
			if t.isBlack(t.nodes[w].left) {
				t.nodes[t.nodes[w].right].color = black
				t.nodes[w].color = red
				t.rotateLeft(w)
				w = t.nodes[parent].left
			}
			t.nodes[w].color = t.nodes[parent].color
			t.nodes[parent].color = black
			t.nodes[t.nodes[w].left].color = black
			t.rotateRight(parent)
			x = t.root
			parent = nilNode
		}
	}
	if x != nilNode {
		t.nodes[x].color = black
	}
}

func (t *arenaTree) minFrom(n int32) int32 {
	for t.nodes[n].left != nilNode {
		n = t.nodes[n].left
	}
	return n
}

// next returns the in-order successor of n, or nilNode.
func (t *arenaTree) next(n int32) int32 {
	if r := t.nodes[n].right; r != nilNode {
		return t.minFrom(r)
	}
	p := t.nodes[n].parent
	for p != nilNode && n == t.nodes[p].right {
		n = p
		p = t.nodes[p].parent
	}
	return p
}

// floor returns the node with the largest key <= key, or nilNode.
func (t *arenaTree) floor(key uint64) int32 {
	best := nilNode
	n := t.root
	for n != nilNode {
		nd := &t.nodes[n]
		switch {
		case key < nd.key:
			n = nd.left
		case key > nd.key:
			best = n
			n = nd.right
		default:
			return n
		}
	}
	return best
}

// ceil returns the node with the smallest key >= key, or nilNode.
func (t *arenaTree) ceil(key uint64) int32 {
	best := nilNode
	n := t.root
	for n != nilNode {
		nd := &t.nodes[n]
		switch {
		case key < nd.key:
			best = n
			n = nd.left
		case key > nd.key:
			n = nd.right
		default:
			return n
		}
	}
	return best
}

// lower returns the node with the largest key strictly < key, or nilNode.
func (t *arenaTree) lower(key uint64) int32 {
	best := nilNode
	n := t.root
	for n != nilNode {
		nd := &t.nodes[n]
		if key > nd.key {
			best = n
			n = nd.right
		} else {
			n = nd.left
		}
	}
	return best
}

// ascend calls fn for each node in key order until fn returns false.
func (t *arenaTree) ascend(fn func(k uint64, v AtomID) bool) {
	n := t.root
	if n == nilNode {
		return
	}
	for n = t.minFrom(n); n != nilNode; n = t.next(n) {
		if !fn(t.nodes[n].key, t.nodes[n].val) {
			return
		}
	}
}

// ascendRange calls fn for each node with lo <= key < hi, in key order,
// until fn returns false.
func (t *arenaTree) ascendRange(lo, hi uint64, fn func(k uint64, v AtomID) bool) {
	for n := t.ceil(lo); n != nilNode && t.nodes[n].key < hi; n = t.next(n) {
		if !fn(t.nodes[n].key, t.nodes[n].val) {
			return
		}
	}
}

// checkInvariants verifies the red-black properties, key ordering, and
// arena bookkeeping, returning a description of the first violation found
// (empty string when valid). Test/tooling only.
func (t *arenaTree) checkInvariants() string {
	if t.root == nilNode {
		if t.size != 0 {
			return "empty tree with nonzero size"
		}
		return ""
	}
	if t.nodes[t.root].color != black {
		return "root is not black"
	}
	if t.nodes[t.root].parent != nilNode {
		return "root has a parent"
	}
	count := 0
	msg := ""
	var walk func(n int32) int // returns black height
	walk = func(n int32) int {
		if n == nilNode {
			return 1
		}
		count++
		nd := t.nodes[n]
		if nd.color == red && (!t.isBlack(nd.left) || !t.isBlack(nd.right)) {
			msg = "red node with red child"
		}
		if nd.left != nilNode {
			if t.nodes[nd.left].parent != n {
				msg = "broken parent index (left)"
			}
			if t.nodes[nd.left].key >= nd.key {
				msg = "left child key not less than parent"
			}
		}
		if nd.right != nilNode {
			if t.nodes[nd.right].parent != n {
				msg = "broken parent index (right)"
			}
			if t.nodes[nd.right].key <= nd.key {
				msg = "right child key not greater than parent"
			}
		}
		lh := walk(nd.left)
		rh := walk(nd.right)
		if lh != rh {
			msg = "unequal black heights"
		}
		h := lh
		if nd.color == black {
			h++
		}
		return h
	}
	walk(t.root)
	if msg != "" {
		return msg
	}
	if count != t.size {
		return "size does not match node count"
	}
	freeCount := 0
	for i := t.freeNode; i != nilNode; i = t.nodes[i].left {
		freeCount++
		if freeCount > len(t.nodes) {
			return "free list cycle"
		}
	}
	if count+freeCount != len(t.nodes) {
		return "arena slots unaccounted for (leak)"
	}
	return ""
}
