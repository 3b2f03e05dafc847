package main

import "github.com/switchware/activebridge/internal/fault/frand"

// Destination-locality reference model after Jain (DEC-TR-592): each
// source keeps an LRU stack of the destinations it addressed last, and
// its next frame goes to one of them with probability reuseProb,
// otherwise to a destination drawn uniformly. Sources are uniform.
const (
	localityStack = 4
	reuseProb     = 0.8
)

// ref is one frame of the reference stream.
type ref struct{ src, dst uint16 }

type localityGen struct {
	rng    frand.Rand
	hosts  int
	stacks [][]uint16 // per source, most recent first
	// reused counts draws that took the reuse branch (for the generator's
	// own test; the harness does not read it).
	reused, draws uint64
}

func newLocalityGen(seed uint64, hosts int) *localityGen {
	return &localityGen{
		rng:    frand.Seeded(frand.DeriveSeed(seed, "locality-tree")),
		hosts:  hosts,
		stacks: make([][]uint16, hosts),
	}
}

func (g *localityGen) intn(n int) int { return int(g.rng.Uint64() % uint64(n)) }

func (g *localityGen) next() ref {
	src := g.intn(g.hosts)
	st := g.stacks[src]
	g.draws++
	var dst uint16
	if len(st) > 0 && g.rng.Float64() < reuseProb {
		g.reused++
		i := g.intn(len(st))
		dst = st[i]
		copy(st[1:i+1], st[:i]) // move to front
		st[0] = dst
	} else {
		d := g.intn(g.hosts - 1)
		if d >= src {
			d++ // never address oneself
		}
		dst = uint16(d)
		at := len(st)
		for i, x := range st {
			if x == dst {
				at = i
				break
			}
		}
		if at == len(st) && len(st) < localityStack {
			st = append(st, 0)
		}
		if at == len(st) {
			at-- // stack full: the least recent entry falls off
		}
		copy(st[1:at+1], st[:at])
		st[0] = dst
		g.stacks[src] = st
	}
	return ref{uint16(src), dst}
}
