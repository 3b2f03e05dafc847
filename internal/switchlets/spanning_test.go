package switchlets_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/stp"
	"github.com/switchware/activebridge/internal/topo"
)

// This file checks the swl spanning tree switchlets against the tree
// 802.1D converges to (stp.Converged), computed from the live graph after
// every fault. The shapes are topology fixtures; the oracle is the policy.

// shape is a named topology fixture.
type shape struct {
	name string
	topo.Shape
}

// mesh joins every pair of n bridges by its own LAN.
func mesh(n int) shape {
	s := shape{"k" + strconv.Itoa(n), topo.Shape{Ports: make([][]int, n)}}
	l := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s.Ports[i] = append(s.Ports[i], l)
			s.Ports[j] = append(s.Ports[j], l)
			l++
		}
	}
	return s
}

// fatTree joins each of two cores to each of edges edge bridges by its own
// LAN.
func fatTree(edges int) shape {
	s := shape{"fattree2x" + strconv.Itoa(edges), topo.Shape{Ports: make([][]int, 2+edges)}}
	for e := 0; e < edges; e++ {
		for c := 0; c < 2; c++ {
			l := 2*e + c
			s.Ports[c] = append(s.Ports[c], l)
			s.Ports[2+e] = append(s.Ports[2+e], l)
		}
	}
	return s
}

// randomShape draws 3–6 bridges with 1–3 ports each over 2–5 LANs. A LAN
// may end up with one bridge or none, and the graph may be partitioned.
func randomShape(seed int64) shape {
	r := rand.New(rand.NewSource(seed))
	s := shape{name: "seed" + strconv.FormatInt(seed, 10)}
	bridges, lans := 3+r.Intn(4), 2+r.Intn(4)
	for b := 0; b < bridges; b++ {
		ps := make([]int, 1+r.Intn(3))
		for p := range ps {
			ps[p] = r.Intn(lans)
		}
		s.Ports = append(s.Ports, ps)
	}
	return s
}

// curatedShapes are the hand-picked topologies: rings, which every STP
// scenario uses, and the shapes rings do not exercise — parallel LANs in
// both link orders (an equal-cost root-port tie), full meshes, several
// bridges sharing several LANs, and two-core fat-trees.
func curatedShapes() []shape {
	var out []shape
	for n := 3; n <= 8; n++ {
		out = append(out, shape{"ring" + strconv.Itoa(n), topo.Ring(n)})
	}
	return append(out,
		shape{"parallel", topo.Shape{Ports: [][]int{{0, 1}, {0, 1}}}},
		shape{"parallel-crossed", topo.Shape{Ports: [][]int{{0, 1}, {1, 0}}}},
		mesh(4), mesh(5),
		shape{"shared3x2", topo.Shape{Ports: [][]int{{0, 1}, {0, 1}, {0, 1}}}},
		shape{"shared4x3", topo.Shape{Ports: [][]int{{0, 1}, {1, 2}, {2, 0}, {0, 1, 2}}}},
		fatTree(2), fatTree(3),
	)
}

// event is one fault schedule: a segment cut or a bridge crash at faultAt,
// optionally undone at undoAt.
type event struct {
	name   string
	lan    int // cut target, -1 for none
	bridge int // crash target, -1 for none
	undo   bool
}

// last is the instant of the schedule's last event.
func (e event) last() netsim.Time {
	switch {
	case e.undo:
		return undoAt
	case e.lan >= 0 || e.bridge >= 0:
		return faultAt
	}
	return 0
}

// events lists the schedules every run of s tries: no fault, each segment
// cut with and without a heal, and each bridge crashed with and without a
// restart. The segments are the LANs s declares.
func events(s shape) []event {
	out := []event{{name: "none", lan: -1, bridge: -1}}
	segs, _ := declare(topo.New(s.name), ieee, s, false)
	for l := range segs {
		out = append(out,
			event{name: fmt.Sprintf("cut-lan%d", l), lan: l, bridge: -1},
			event{name: fmt.Sprintf("cut-heal-lan%d", l), lan: l, bridge: -1, undo: true})
	}
	for b := range s.Ports {
		out = append(out,
			event{name: fmt.Sprintf("crash-br%d", b), lan: -1, bridge: b},
			event{name: fmt.Sprintf("crash-restart-br%d", b), lan: -1, bridge: b, undo: true})
	}
	return out
}

// codec is one of the two protocol stacks under test.
type codec struct {
	name  string
	kind  topo.BridgeKind
	probe string
}

var (
	ieee = codec{"ieee", topo.STPBridge, "ieee.tree"}
	dec  = codec{"dec", topo.AgilityBridge, "dec.tree"}
)

var (
	// timers are the 802.1D defaults both switchlets run.
	timers = stp.Config{}.DefaultTimers()
	// settle is how long after its last event a run must agree with the
	// oracle: the worst case measured over every shape and event in this
	// file. A lost root is noticed only when its vector ages out (MaxAge);
	// the port that replaces a root port walks listening and learning
	// before it forwards (2 × ForwardDelay); and the news crosses a bridge
	// per hello tick, so the far side of the tree learns up to three
	// HelloTimes later. That is 20 + 30 + 6 = 56 s, where the textbook
	// bound MaxAge + 2 × ForwardDelay (50 s) is three ticks too tight.
	settle = timers.MaxAge + 2*timers.ForwardDelay + 3*timers.HelloTime
	// probeTimes are the instants after the last event at which every live
	// bridge is compared: once settled, and seven ticks later, to check
	// that the tree stays put.
	probeTimes = [2]netsim.Duration{settle, settle + 7*timers.HelloTime}
	// faultAt lands once the initial tree has converged: every port has
	// walked listening and learning, and one more hello has gone round.
	faultAt = netsim.Time(2*timers.ForwardDelay + 2*timers.HelloTime)
	// undoAt lands once the fault's own reconvergence is over.
	undoAt = faultAt.Add(settle)
)

// countToInfinity lists the runs known to disagree with 802.1D: the root
// is lost — it crashed, or a cut segment or crashed bridge severed the way
// to it — and the bridges left without it still contain a loop, if only
// two ports of one bridge on one LAN. The switchlets' vectors carry no
// message age, so the lost root's vector keeps circulating around the loop
// with a rising cost and never ages out. Each listed run must show that
// symptom at both probes, and any other disagreement fails the test. A
// true value also requires that by the second probe no live port is
// blocked: a forwarding loop.
var countToInfinity = map[string]bool{
	"k4/crash-br0":        true,
	"k5/crash-br0":        false,
	"shared4x3/crash-br0": false,
	"seed2/crash-br0":     false,
	"seed2/cut-lan0":      true,
	"seed4/crash-br0":     true,
	"seed6/crash-br0":     true,
	"seed6/cut-lan2":      true,
}

// declare adds s to g with every bridge of kind c.kind, its bridge rows
// in reverse order when reverse is set. Whatever the order, bridge b is
// named br<b> and pinned to identity b+1, and the bridge IDs come back in
// s's row order.
func declare(g *topo.Graph, c codec, s shape, reverse bool) ([]topo.SegmentID, []topo.BridgeID) {
	n := len(s.Ports)
	row := func(i int) int {
		if reverse {
			return n - 1 - i
		}
		return i
	}
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = s.Ports[row(i)]
	}
	segs, declared := topo.Shape{Ports: rows}.Declare(g, "seg", func(i int) topo.BridgeID {
		b := row(i)
		return g.AddBridge(fmt.Sprintf("br%d", b), c.kind, len(s.Ports[b]), topo.WithBridgeID(byte(b+1)))
	})
	ids := make([]topo.BridgeID, n)
	for i, id := range declared {
		ids[row(i)] = id
	}
	return segs, ids
}

// run builds s with every bridge of kind c.kind, declared in reverse when
// reverse is set, applies e, and compares every live bridge with
// stp.Converged at both probe times. It returns a description of the first
// disagreement, or "" when the switchlets agree. A run listed in
// countToInfinity is instead checked for its symptom.
func run(t *testing.T, c codec, s shape, e event, reverse bool) string {
	g := topo.New(c.name + "-" + s.name + "-" + e.name)
	segs, ids := declare(g, c, s, reverse)
	net, err := g.Build(netsim.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	apply := func(undo bool) func() {
		return func() {
			if e.lan >= 0 {
				net.SetSegmentDown(segs[e.lan], !undo)
				return
			}
			br := net.Bridge(ids[e.bridge])
			if !undo {
				br.Crash()
			} else if err := br.Restart(); err != nil {
				t.Error(err)
			}
		}
	}
	if e.lan >= 0 || e.bridge >= 0 {
		net.Sim.Schedule(faultAt, apply(false))
	}
	if e.undo {
		net.Sim.Schedule(undoAt, apply(true))
	}

	key := s.name + "/" + e.name
	loop, stuck := countToInfinity[key]
	_, before := oracle(net, segs, ids) // every bridge is live before the fault
	var worst [2]uint64
	for i, d := range probeTimes {
		net.Sim.Run(e.last().Add(d))
		live, want := oracle(net, segs, ids)
		disagree := 0
		for j, k := range live {
			br := net.Bridge(ids[k])
			got, err := br.Manager().Query(c.probe, "")
			if err != nil {
				t.Fatal(err)
			}
			bad := -1
			for p, r := range want[j].Roles {
				if br.PortBlocked(p) != (r == stp.RoleBlocked) {
					bad = p
				}
			}
			if got == want[j].String() && bad < 0 {
				continue
			}
			disagree++
			if !stuck {
				msg := fmt.Sprintf("%s: %s at last event + %v: %s\n got %s\nwant %s", c.name, key, d, br.Name, got, want[j])
				if bad >= 0 {
					msg += fmt.Sprintf("\nport %d blocked=%v", bad, br.PortBlocked(bad))
				}
				return msg
			}
			lost := before[k].Root
			if want[j].Root == lost || !strings.HasPrefix(got, fmt.Sprintf("root=%016x ", uint64(lost))) {
				return fmt.Sprintf("%s: %s at last event + %v: %s disagrees without counting to infinity\n got %s\nwant %s",
					c.name, key, d, br.Name, got, want[j])
			}
			worst[i] = max(worst[i], treeCost(t, got))
		}
		if stuck && disagree == 0 {
			return fmt.Sprintf("%s: %s is listed as counting to infinity but agrees at last event + %v", c.name, key, d)
		}
		if loop && i == 1 {
			for _, k := range live {
				br := net.Bridge(ids[k])
				for p := 0; p < br.NumPorts(); p++ {
					if br.PortBlocked(p) {
						return fmt.Sprintf("%s: %s: %s port %d blocked, want a forwarding loop", c.name, key, br.Name, p)
					}
				}
			}
		}
	}
	if stuck && worst[1] <= worst[0] {
		return fmt.Sprintf("%s: %s: highest stale cost %d -> %d does not rise", c.name, key, worst[0], worst[1])
	}
	return ""
}

// oracle reads the live graph off net — crashed bridges are absent, a port
// whose link or segment is down is on no LAN — and returns the live
// bridges, as indices into ids, with the tree 802.1D converges to for
// them.
func oracle(net *topo.Net, segs []topo.SegmentID, ids []topo.BridgeID) ([]int, []stp.View) {
	var live []int
	var g stp.Graph
	for k, b := range ids {
		br := net.Bridge(b)
		if br.Crashed() {
			continue
		}
		live = append(live, k)
		g.Bridges = append(g.Bridges, stp.MakeBridgeID(0x8000, br.MAC()))
		ports := make([]int, br.NumPorts())
		for p := range ports {
			nic := br.Port(p)
			ports[p] = -1
			for l, s := range segs {
				if nic.Segment() == net.Segment(s) && !nic.LinkDown() && !net.Segment(s).Down() {
					ports[p] = l
				}
			}
		}
		g.Ports = append(g.Ports, ports)
	}
	return live, stp.Converged(g)
}

// treeCost extracts the cost field of a tree probe string.
func treeCost(t *testing.T, tree string) uint64 {
	for _, f := range strings.Fields(tree) {
		if v, ok := strings.CutPrefix(f, "cost="); ok {
			n, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no cost in %q", tree)
	return 0
}

// TestSpanningTreeMatches8021D is the differential check of the swl
// spanning tree against stp.Converged. The IEEE switchlet runs every event
// on every curated shape and on a few seeded random graphs. The DEC
// switchlet, the same algorithm behind another frame format, runs the
// curated shapes with no fault and with every single fault; healing a cut
// or restarting a bridge takes it through no code the IEEE runs do not.
func TestSpanningTreeMatches8021D(t *testing.T) { campaign(t, false) }

// TestSpanningTreeIgnoresDeclarationOrder reruns the campaign with every
// shape's bridges declared in reverse, each keeping its identity. Link
// order, and with it same-instant delivery and timer arming, changes; the
// tree 802.1D defines does not, so every run must reach the same verdict.
func TestSpanningTreeIgnoresDeclarationOrder(t *testing.T) { campaign(t, true) }

// campaign runs every job of the differential check, declaring the bridge
// rows in reverse when reverse is set.
func campaign(t *testing.T, reverse bool) {
	type job struct {
		c      codec
		s      shape
		events []event
	}
	var jobs []job
	for _, s := range curatedShapes() {
		jobs = append(jobs, job{ieee, s, events(s)})
	}
	for seed := int64(1); seed <= 8; seed++ {
		s := randomShape(seed)
		jobs = append(jobs, job{ieee, s, events(s)})
	}
	for _, s := range curatedShapes() {
		var single []event
		for _, e := range events(s) {
			if !e.undo {
				single = append(single, e)
			}
		}
		jobs = append(jobs, job{dec, s, single})
	}
	listed := map[string]bool{}
	runs := 0
	for _, j := range jobs {
		for _, e := range j.events {
			if _, ok := countToInfinity[j.s.name+"/"+e.name]; ok {
				listed[j.s.name+"/"+e.name] = true
			}
		}
		runs += len(j.events)
		t.Run(j.c.name+"/"+j.s.name, func(t *testing.T) {
			t.Parallel()
			for _, e := range j.events {
				if msg := run(t, j.c, j.s, e, reverse); msg != "" {
					t.Error(msg)
				}
			}
		})
	}
	t.Logf("%d runs", runs)
	var missing []string
	for k := range countToInfinity {
		if !listed[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("listed count-to-infinity runs that no shape produces: %v", missing)
	}
}
