// Package stp holds what the two spanning tree switchlets share outside
// swl: the 802.1D identifiers and priority order, the configuration BPDU
// encoder the experiments use to inject a root claim (§5.4's transition
// trigger), and Converged, the tree 802.1D settles on for a given live
// topology.
//
// The protocol itself runs only as bytecode: the swl Spanning switchlet
// (paper §5.3) and its DEC-style twin Decspan (§5.4), "the same
// algorithm" with an incompatible frame format. Converged is the oracle
// they are checked against after every fault; it computes the fixed point
// directly from the graph instead of running a second state machine.
package stp

import (
	"fmt"
	"sort"
	"strings"

	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
)

// BridgeID is the 64-bit 802.1D bridge identifier: a 16-bit management
// priority concatenated with the bridge MAC address. Lower is better.
type BridgeID uint64

// MakeBridgeID composes priority and MAC.
func MakeBridgeID(priority uint16, mac ethernet.MAC) BridgeID {
	return BridgeID(uint64(priority)<<48 | mac.Uint64())
}

// MAC extracts the address part.
func (id BridgeID) MAC() ethernet.MAC { return ethernet.MACFromUint64(uint64(id)) }

// Priority extracts the management priority.
func (id BridgeID) Priority() uint16 { return uint16(id >> 48) }

func (id BridgeID) String() string {
	return fmt.Sprintf("%d/%v", id.Priority(), id.MAC())
}

// Vector is an 802.1D priority vector as carried in configuration BPDUs.
type Vector struct {
	RootID BridgeID
	Cost   uint32
	Bridge BridgeID
	Port   uint16
}

// Better reports whether v is strictly preferable to w under the 802.1D
// total order: lower root, then lower cost, then lower transmitting
// bridge, then lower port.
func (v Vector) Better(w Vector) bool {
	if v.RootID != w.RootID {
		return v.RootID < w.RootID
	}
	if v.Cost != w.Cost {
		return v.Cost < w.Cost
	}
	if v.Bridge != w.Bridge {
		return v.Bridge < w.Bridge
	}
	return v.Port < w.Port
}

// Role is the port's topology role. The values are the ones the swl
// switchlets print in their tree probes.
type Role int

// Port roles.
const (
	RoleBlocked Role = iota
	RoleRoot
	RoleDesignated
)

var roleNames = [...]string{"blocked", "root", "designated"}

func (r Role) String() string { return roleNames[r] }

// Config holds the 802.1D timer values and per-port path cost. The
// defaults produce the paper's observed 30-second forwarding delay.
type Config struct {
	HelloTime    netsim.Duration // default 2 s
	MaxAge       netsim.Duration // default 20 s
	ForwardDelay netsim.Duration // default 15 s
	PathCost     uint32          // per-port cost; 19 is 802.1D for 100 Mb/s
}

// DefaultTimers fills unset fields with the 802.1D defaults.
func (c Config) DefaultTimers() Config {
	if c.HelloTime == 0 {
		c.HelloTime = 2 * netsim.Second
	}
	if c.MaxAge == 0 {
		c.MaxAge = 20 * netsim.Second
	}
	if c.ForwardDelay == 0 {
		c.ForwardDelay = 15 * netsim.Second
	}
	if c.PathCost == 0 {
		c.PathCost = 19
	}
	return c
}

// Graph is the live topology Converged reads. Bridges holds one ID per
// live bridge; Ports[i][p] is the LAN bridge i's port p is on, as an index
// from 0, or -1 when the port's link or its LAN is down.
type Graph struct {
	Bridges []BridgeID
	Ports   [][]int
}

// View is one bridge's share of a converged spanning tree.
type View struct {
	Root     BridgeID
	Cost     uint32
	RootPort int // -1 at the root
	Roles    []Role
}

// String renders the view in the format of the switchlets' ieee.tree and
// dec.tree probes, so the two compare as strings.
func (v View) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "root=%016x cost=%d rp=%d", uint64(v.Root), v.Cost, v.RootPort)
	for p, r := range v.Roles {
		fmt.Fprintf(&sb, " p%d=%d", p, int(r))
	}
	return sb.String()
}

// Converged returns the 802.1D fixed point of g, one View per bridge in
// g.Bridges order. In each connected component the lowest bridge ID is
// the root, and a bridge's cost is one default path cost per bridge hop
// to it. Each LAN's designated port is the best (root, cost, bridge, port)
// attached to it. A bridge's root port is the port whose LAN has the best
// designated vector, its own port number breaking a tie; every other port
// is designated if it is its LAN's designated port or is on no live LAN,
// and blocked otherwise.
func Converged(g Graph) []View {
	pathCost := Config{}.DefaultTimers().PathCost
	n := len(g.Bridges)
	// lans[l] lists the (bridge, port) pairs attached to LAN l.
	type attachment struct{ b, p int }
	var lans [][]attachment
	for b, ports := range g.Ports {
		for p, l := range ports {
			if l < 0 {
				continue
			}
			for len(lans) <= l {
				lans = append(lans, nil)
			}
			lans[l] = append(lans[l], attachment{b, p})
		}
	}

	// Each component is searched breadth first from its lowest ID, so hops
	// counts bridge hops to the root.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return g.Bridges[order[i]] < g.Bridges[order[j]] })
	root := make([]BridgeID, n)
	hops := make([]uint32, n)
	seen := make([]bool, n)
	for _, r := range order {
		if seen[r] {
			continue
		}
		seen[r] = true
		root[r] = g.Bridges[r]
		for queue := []int{r}; len(queue) > 0; queue = queue[1:] {
			b := queue[0]
			for _, l := range g.Ports[b] {
				if l < 0 {
					continue
				}
				for _, a := range lans[l] {
					if !seen[a.b] {
						seen[a.b] = true
						root[a.b], hops[a.b] = root[r], hops[b]+1
						queue = append(queue, a.b)
					}
				}
			}
		}
	}
	vector := func(b, p int) Vector {
		return Vector{RootID: root[b], Cost: hops[b] * pathCost, Bridge: g.Bridges[b], Port: uint16(p)}
	}

	designated := make([]Vector, len(lans))
	for l, as := range lans {
		for i, a := range as {
			if v := vector(a.b, a.p); i == 0 || v.Better(designated[l]) {
				designated[l] = v
			}
		}
	}

	views := make([]View, n)
	for b, ports := range g.Ports {
		v := View{Root: root[b], Cost: hops[b] * pathCost, RootPort: -1, Roles: make([]Role, len(ports))}
		if root[b] != g.Bridges[b] {
			for p, l := range ports {
				if l >= 0 && designated[l].Bridge != g.Bridges[b] &&
					(v.RootPort < 0 || designated[l].Better(designated[ports[v.RootPort]])) {
					v.RootPort = p
				}
			}
		}
		for p, l := range ports {
			switch {
			case p == v.RootPort:
				v.Roles[p] = RoleRoot
			case l < 0 || designated[l] == vector(b, p):
				v.Roles[p] = RoleDesignated
			default:
				v.Roles[p] = RoleBlocked
			}
		}
		views[b] = v
	}
	return views
}
