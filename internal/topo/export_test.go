package topo

// InDFSOrder exposes what Partition chunked, for the property tests: the
// shard the plan gave each node, the node's modelled weight and its
// affinity group, all indexed by position in the partitioner's
// depth-first order.
func (p *Plan) InDFSOrder(g *Graph) (shard, weight, group []int) {
	refs, order, groups, _ := g.dfsOrder()
	for _, v := range order {
		shard = append(shard, p.nodeShard(refs[v]))
		weight = append(weight, nodeWeight(refs[v], g))
		group = append(group, groups[v])
	}
	return shard, weight, group
}
