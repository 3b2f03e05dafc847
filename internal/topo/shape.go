package topo

import "fmt"

// Shape is a bridge–LAN fixture with no policy attached: Ports[b] lists
// the LAN index of each of bridge b's ports, in port order. The LANs are
// numbered from 0 to one past the highest index any port names.
type Shape struct {
	Ports [][]int
}

// Chain is n two-port bridges in a line over n+1 LANs, bridge i between
// LANs i and i+1.
func Chain(n int) Shape {
	s := Shape{Ports: make([][]int, n)}
	for i := range s.Ports {
		s.Ports[i] = []int{i, i + 1}
	}
	return s
}

// Ring is n two-port bridges in a loop over n LANs, bridge i between LANs
// i and (i+1) mod n.
func Ring(n int) Shape {
	s := Shape{Ports: make([][]int, n)}
	for i := range s.Ports {
		s.Ports[i] = []int{i, (i + 1) % n}
	}
	return s
}

// Declare adds s to g: every LAN in index order, named lanPrefix plus its
// index, then each bridge in row order, made by bridge(b) and linked port
// by port. Declaration and Link order are part of the topology contract
// (see Build), so they are part of every golden built on a Shape. It
// returns the LANs' and the bridges' IDs, both in s's order.
func (s Shape) Declare(g *Graph, lanPrefix string, bridge func(b int) BridgeID) ([]SegmentID, []BridgeID) {
	lans := 0
	for _, ps := range s.Ports {
		for _, l := range ps {
			lans = max(lans, l+1)
		}
	}
	segs := make([]SegmentID, lans)
	for l := range segs {
		segs[l] = g.AddSegment(fmt.Sprintf("%s%d", lanPrefix, l))
	}
	brs := make([]BridgeID, len(s.Ports))
	for b, ps := range s.Ports {
		brs[b] = bridge(b)
		for _, l := range ps {
			g.Link(brs[b], segs[l])
		}
	}
	return segs, brs
}
