package topo

// Graph partitioning for the sharded conservative engine
// (netsim.Coordinator): assign every declared node to exactly one shard.
// Sharding is an exactness-preserving mechanism, not a speed-up: at LAN
// latencies a shard runs a handful of events between hand-offs and two
// shards run the benchmark's fabric at under half the speed of one
// engine (README, "Sharded engine"), so nothing here tries to place the
// cut cleverly.

// DefaultShards is the shard count Build uses when the graph does not
// set one explicitly with Graph.Shards: 1, serial. The identity tests
// raise it (AB_SHARDS) to replay every registered scenario on the sharded
// engine; it is read once per Build, so do not mutate it concurrently
// with builds.
var DefaultShards = 1

// minShardWeight is the minimum modelled work (see nodeWeight) a shard
// must carry: graphs below 2*minShardWeight always build serial, and
// larger graphs get at most totalWeight/minShardWeight shards.
// Paper-scale nets (a handful of nodes) therefore run on the serial
// engine whatever shard count is asked for.
const minShardWeight = 8

// Shards requests that Build partition this graph across n shard engines
// (subject to Partition's feasibility rules; n <= 1 forces serial). The
// default comes from DefaultShards.
func (g *Graph) Shards(n int) {
	g.shardsReq = n
	g.shardsSet = true
}

// Affine declares that two nodes must land in the same shard. Use it for
// endpoints coupled outside the simulated network — above all the two
// hosts of a closed-loop workload.Ttcp stream, whose receiver releases
// the sender's next segment directly (the unmodelled ACK channel) rather
// than through frames on the wire. The partitioner honors affinity
// before balance.
func (g *Graph) Affine(a, b Node) {
	if a == nil || b == nil {
		g.fail("Affine: nil node")
		return
	}
	g.affine = append(g.affine, [2]nodeRef{a.ref(), b.ref()})
}

// Plan is a computed shard assignment: one shard index per declared node
// and an owner shard per segment (the lowest shard among its
// attachments, where the segment's contended medium state lives).
type Plan struct {
	// Shards is the number of shard engines the plan uses (always >= 2).
	Shards int

	hostShard     []int
	bridgeShard   []int
	repeaterShard []int
	tapShard      []int
	segOwner      []int
}

// HostShard reports a host's assigned shard.
func (p *Plan) HostShard(id HostID) int { return p.hostShard[id] }

// BridgeShard reports a bridge's assigned shard.
func (p *Plan) BridgeShard(id BridgeID) int { return p.bridgeShard[id] }

// Cuts reports how many segments the plan cuts (attachments in more than
// one shard).
func (p *Plan) Cuts(g *Graph) int {
	cuts := 0
	for si := range g.segments {
		owner := p.segOwner[si]
		for _, l := range g.links {
			if int(l.seg) == si && p.nodeShard(l.node) != owner {
				cuts++
				break
			}
		}
	}
	return cuts
}

func (p *Plan) nodeShard(r nodeRef) int {
	switch r.kind {
	case nodeHost:
		return p.hostShard[r.idx]
	case nodeBridge:
		return p.bridgeShard[r.idx]
	case nodeRepeater:
		return p.repeaterShard[r.idx]
	default:
		return p.tapShard[r.idx]
	}
}

// nodeWeight models a node's relative event-processing cost: an
// interpreted bridge dominates (VM dispatch per frame), a repeater pays
// only kernel crossings, and hosts and taps are endpoints.
func nodeWeight(r nodeRef, g *Graph) int {
	switch r.kind {
	case nodeBridge:
		return 4
	case nodeRepeater:
		return 2
	default:
		return 1
	}
}

// dfsOrder is the partitioner's view of the declaration: refs indexes
// every node canonically (bridges, repeaters, hosts, taps, each in
// declaration order — the backbone first, so the traversal starts on
// it), order lists those indexes in depth-first preorder over the
// node–segment incidence graph, group maps a node to the representative
// of its affinity group (itself when it has none), and segNodes lists
// each segment's attached nodes.
func (g *Graph) dfsOrder() (refs []nodeRef, order, group []int, segNodes [][]int) {
	n := len(g.hosts) + len(g.bridges) + len(g.repeaters) + len(g.taps)
	refs = make([]nodeRef, 0, n)
	for i := range g.bridges {
		refs = append(refs, nodeRef{nodeBridge, i})
	}
	for i := range g.repeaters {
		refs = append(refs, nodeRef{nodeRepeater, i})
	}
	for i := range g.hosts {
		refs = append(refs, nodeRef{nodeHost, i})
	}
	for i := range g.taps {
		refs = append(refs, nodeRef{nodeTap, i})
	}
	index := make(map[nodeRef]int, n)
	for i, r := range refs {
		index[r] = i
	}

	// Affinity union-find, flattened to one representative per node.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, pair := range g.affine {
		a, aok := index[pair[0]]
		b, bok := index[pair[1]]
		if aok && bok {
			parent[find(a)] = find(b)
		}
	}
	group = make([]int, n)
	for i := range group {
		group[i] = find(i)
	}

	// Incidence lists from the declared links.
	nodeSegs := make([][]int, n)
	segNodes = make([][]int, len(g.segments))
	for _, l := range g.links {
		ni := index[l.node]
		nodeSegs[ni] = append(nodeSegs[ni], int(l.seg))
		segNodes[l.seg] = append(segNodes[l.seg], ni)
	}

	// Depth-first preorder: a chain yields its own path order, and a tree
	// keeps every subtree — an edge bridge and its hosts, a pod and its
	// leaves — contiguous, so balanced chunks cut trunks rather than
	// scattering leaves away from their switch.
	order = make([]int, 0, n)
	seen := make([]bool, n)
	stack := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		seen[start] = true
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, v)
			// Push neighbors in reverse declaration order so they are
			// visited in declaration order.
			for si := len(nodeSegs[v]) - 1; si >= 0; si-- {
				nodes := segNodes[nodeSegs[v][si]]
				for wi := len(nodes) - 1; wi >= 0; wi-- {
					if w := nodes[wi]; !seen[w] {
						seen[w] = true
						stack = append(stack, w)
					}
				}
			}
		}
	}
	return refs, order, group, segNodes
}

// Partition computes a deterministic shard assignment of the graph's
// nodes onto up to shards shard engines, or reports ok=false when the
// graph should build serial (a single shard requested, or too little
// modelled work for two shards of minShardWeight).
//
//  1. Affinity groups (Graph.Affine) are contracted: a group is placed,
//     whole, where its first member falls in the order below.
//  2. Nodes are ordered by a depth-first preorder traversal over the
//     node–segment incidence graph from the first declared node, which
//     makes topologically adjacent nodes adjacent in the order (a chain
//     yields its own path order; a tree yields contiguous subtrees).
//  3. The order is split into contiguous weight-balanced chunks, one per
//     shard: chunk k starts at the first node with k/shards of the total
//     weight before it. Where the boundaries fall is not tuned — cut
//     latency made no measurable difference (README, "Sharded engine").
//
// The result is a pure function of the graph declaration — the same
// graph partitions the same way on every machine and every run.
func Partition(g *Graph, shards int) (*Plan, bool) {
	if shards <= 1 {
		return nil, false
	}
	refs, order, group, segNodes := g.dfsOrder()
	n := len(refs)
	total := 0
	groupWeight := make([]int, n)
	for i, r := range refs {
		w := nodeWeight(r, g)
		total += w
		groupWeight[group[i]] += w
	}
	eff := shards
	if max := total / minShardWeight; eff > max {
		eff = max
	}
	if eff < 2 {
		return nil, false
	}

	// shardOf is indexed by affinity-group representative; -1 until the
	// group's first member is reached.
	shardOf := make([]int, n)
	for i := range shardOf {
		shardOf[i] = -1
	}
	chunk, before := 0, 0
	for _, v := range order {
		gr := group[v]
		if shardOf[gr] >= 0 {
			continue
		}
		if chunk < eff-1 && before >= (chunk+1)*total/eff {
			chunk++
		}
		shardOf[gr] = chunk
		before += groupWeight[gr]
	}
	if chunk < eff-1 {
		// Heavy affinity groups swallowed the later chunks' share; retry
		// with one shard fewer.
		return Partition(g, eff-1)
	}

	plan := &Plan{
		Shards:        eff,
		hostShard:     make([]int, len(g.hosts)),
		bridgeShard:   make([]int, len(g.bridges)),
		repeaterShard: make([]int, len(g.repeaters)),
		tapShard:      make([]int, len(g.taps)),
		segOwner:      make([]int, len(g.segments)),
	}
	for i, r := range refs {
		switch r.kind {
		case nodeHost:
			plan.hostShard[r.idx] = shardOf[group[i]]
		case nodeBridge:
			plan.bridgeShard[r.idx] = shardOf[group[i]]
		case nodeRepeater:
			plan.repeaterShard[r.idx] = shardOf[group[i]]
		case nodeTap:
			plan.tapShard[r.idx] = shardOf[group[i]]
		}
	}
	// A segment lives in the lowest shard among its attachments, so the
	// zero-lookahead transmit direction of every cut always points from a
	// higher shard to a lower one (acyclic constraint graph). An unlinked
	// segment defaults to shard 0.
	for si := range g.segments {
		owner := 0
		if len(segNodes[si]) > 0 {
			owner = plan.Shards
			for _, ni := range segNodes[si] {
				if s := shardOf[group[ni]]; s < owner {
					owner = s
				}
			}
		}
		plan.segOwner[si] = owner
	}
	return plan, true
}
