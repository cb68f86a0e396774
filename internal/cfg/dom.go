package cfg

// DomTree is an immediate-dominator tree over a Graph, computed with the
// Cooper–Harvey–Kennedy iterative algorithm. A virtual root with an edge
// to every Entry block makes the forest single-rooted; consequently a
// block reachable through a control transfer the graph does not model
// (indirect jump, call return, trap) is dominated by nothing but itself,
// which is exactly the conservative answer.
type DomTree struct {
	g     *Graph
	idom  []int // immediate dominator block id; len(g.Blocks) is the virtual root
	depth []int // depth in the dominator tree (root = 0)
}

// NewDomTree computes the dominator tree of g.
func NewDomTree(g *Graph) *DomTree {
	n := len(g.Blocks)
	root := n
	d := &DomTree{g: g, idom: make([]int, n+1), depth: make([]int, n+1)}

	// Predecessor lists including the virtual root edges.
	preds := make([][]int, n)
	for b := range g.Blocks {
		preds[b] = g.Blocks[b].Preds
	}
	isEntry := make([]bool, n)
	for _, e := range g.Entries {
		isEntry[e] = true
	}

	// Reverse postorder from the root.
	post := make([]int, 0, n)
	state := make([]uint8, n) // 0 unvisited, 1 on stack, 2 done
	type frame struct{ b, i int }
	var stack []frame
	for _, e := range g.Entries {
		if state[e] != 0 {
			continue
		}
		state[e] = 1
		stack = append(stack, frame{e, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i < len(g.Blocks[f.b].Succs) {
				s := g.Blocks[f.b].Succs[f.i]
				f.i++
				if state[s] == 0 {
					state[s] = 1
					stack = append(stack, frame{s, 0})
				}
				continue
			}
			state[f.b] = 2
			post = append(post, f.b)
			stack = stack[:len(stack)-1]
		}
	}
	rpo := make([]int, 0, n)
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	rpoNum := make([]int, n+1)
	for i, b := range rpo {
		rpoNum[b] = i + 1 // root gets 0
	}
	rpoNum[root] = 0

	const undef = -1
	for i := range d.idom {
		d.idom[i] = undef
	}
	d.idom[root] = root

	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = d.idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = d.idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			newIdom := undef
			if isEntry[b] {
				newIdom = root
			}
			for _, p := range preds[b] {
				if d.idom[p] == undef {
					continue
				}
				if newIdom == undef {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != undef && d.idom[b] != newIdom {
				d.idom[b] = newIdom
				changed = true
			}
		}
	}

	// Depths (root = 0). Unreached blocks cannot occur: markEntries
	// guarantees every block is root-reachable.
	for _, b := range rpo {
		d.depth[b] = d.depth[d.idom[b]] + 1
	}
	return d
}

// Depth returns b's depth in the dominator tree (children of the
// virtual root have depth 1).
func (d *DomTree) Depth(b int) int { return d.depth[b] }

// MaxDepth returns the height of the dominator tree over the block
// range [lo, hi) (used for per-function report stats).
func (d *DomTree) MaxDepth(blocks []int) int {
	max := 0
	for _, b := range blocks {
		if d.depth[b] > max {
			max = d.depth[b]
		}
	}
	return max
}

// Dominates reports whether block a dominates block b (reflexive).
func (d *DomTree) Dominates(a, b int) bool {
	for d.depth[b] > d.depth[a] {
		b = d.idom[b]
	}
	return a == b
}
