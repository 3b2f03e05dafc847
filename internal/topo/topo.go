// Package topo is the declarative topology layer of the reproduction: a
// graph builder for arbitrary extended LANs that materializes a
// netsim.Sim plus typed handles onto every node.
//
// The hand-wired measurement networks (internal/testbed, the experiment
// constructions) all reduce to the same moves: create segments, create
// hosts/bridges/repeaters, attach NICs in a fixed order, load the
// switchlets each bridge should run, and install the static neighbor
// tables. A Graph declares those moves once:
//
//	g := topo.New("two-lan")
//	h1 := g.AddHost("")                       // auto MAC/IP
//	h2 := g.AddHost("")
//	br := g.AddBridge("", topo.LearningBridge, 2)
//	lan1, lan2 := g.AddSegment("lan1"), g.AddSegment("lan2")
//	g.Link(h1, lan1)
//	g.Link(br, lan1)                          // bridge ports auto-assigned
//	g.Link(h2, lan2)
//	g.Link(br, lan2)
//	net := g.MustBuild(cost)
//	net.Warm(h1, h2)
//
// Build order is deterministic and declaration-driven: segments, hosts,
// repeaters, taps and bridges are created in declaration order, NICs are
// attached in Link order (which fixes same-instant delivery order on a
// segment), and switchlets load per bridge in declaration order. Two
// builds of the same Graph therefore produce byte-identical simulations,
// which is what lets independent scenarios run in parallel across cores
// (internal/scenario) while their virtual-time outputs stay pinned to
// golden values.
package topo

import (
	"fmt"

	"github.com/switchware/activebridge/internal/baseline"
	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/env"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/fault"
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/tracing"
	"github.com/switchware/activebridge/internal/workload"
)

// BridgeKind selects the switchlet set a bridge runs after wiring. The
// kinds mirror the paper's configurations: behaviour is code, and the
// kind names which code gets loaded.
type BridgeKind int

const (
	// EmptyBridge loads nothing: the bridge forwards no frames until a
	// switchlet arrives (typically over the network loader, §5.2).
	EmptyBridge BridgeKind = iota
	// DumbBridge runs the buffered-repeater switchlet: every frame is
	// flooded out every other port.
	DumbBridge
	// LearningBridge runs the swl learning switchlet — the paper's
	// measured system.
	LearningBridge
	// NativeLearningBridge installs the native-code learning switchlet
	// (the paper's envisioned native-compilation optimization, used as an
	// ablation baseline).
	NativeLearningBridge
	// STPBridge runs learning plus the IEEE 802.1D spanning tree
	// switchlet, which starts immediately when no other protocol is
	// running. Use it for redundant topologies.
	STPBridge
	// AgilityBridge runs the full §5.4/§7.5 stack: learning, the DEC
	// spanning tree (running), the IEEE spanning tree (dormant) and the
	// control switchlet that drives the automatic protocol transition.
	AgilityBridge
)

var bridgeKindNames = [...]string{"empty", "dumb", "learning", "native-learning", "stp", "agility"}

func (k BridgeKind) String() string {
	if k < 0 || int(k) >= len(bridgeKindNames) {
		return fmt.Sprintf("bridgekind(%d)", int(k))
	}
	return bridgeKindNames[k]
}

// Typed node identifiers. An ID is an index into the graph's declaration
// order and stays valid on the built Net.
type (
	// HostID names a measurement host (full protocol stack).
	HostID int
	// BridgeID names an active bridge.
	BridgeID int
	// RepeaterID names a C buffered repeater.
	RepeaterID int
	// TapID names a bare NIC (injection/capture points, like the paper's
	// measurement node interfaces).
	TapID int
	// SegmentID names a shared 100 Mb/s segment.
	SegmentID int
)

type nodeKind int

const (
	nodeHost nodeKind = iota
	nodeBridge
	nodeRepeater
	nodeTap
)

var nodeKindNames = [...]string{"host", "bridge", "repeater", "tap"}

type nodeRef struct {
	kind nodeKind
	idx  int
}

// Node is any attachable endpoint: a HostID, BridgeID, RepeaterID or
// TapID. Only this package's ID types implement it.
type Node interface{ ref() nodeRef }

func (id HostID) ref() nodeRef     { return nodeRef{nodeHost, int(id)} }
func (id BridgeID) ref() nodeRef   { return nodeRef{nodeBridge, int(id)} }
func (id RepeaterID) ref() nodeRef { return nodeRef{nodeRepeater, int(id)} }
func (id TapID) ref() nodeRef      { return nodeRef{nodeTap, int(id)} }

type hostSpec struct {
	name   string
	mac    ethernet.MAC
	ip     ipv4.Addr
	hasMAC bool
	hasIP  bool
	linked bool
}

type bridgeSpec struct {
	name         string
	kind         BridgeKind
	ports        int
	id           byte
	netLoader    ipv4.Addr
	hasNetLoader bool
	spanningSrc  string
	logSink      func(at netsim.Time, bridge, msg string)
	linkCursor   int
}

type repeaterSpec struct {
	name       string
	linkCursor int
}

type tapSpec struct {
	name   string
	mac    ethernet.MAC
	linked bool
}

type linkSpec struct {
	node nodeRef
	seg  SegmentID
	port int // resolved port index on the node
}

// HostOpt customizes a declared host.
type HostOpt func(*hostSpec)

// WithMAC fixes the host's MAC address instead of auto-assignment.
func WithMAC(m ethernet.MAC) HostOpt {
	return func(h *hostSpec) { h.mac, h.hasMAC = m, true }
}

// WithIP fixes the host's IP address instead of auto-assignment.
func WithIP(ip ipv4.Addr) HostOpt {
	return func(h *hostSpec) { h.ip, h.hasIP = ip, true }
}

// BridgeOpt customizes a declared bridge.
type BridgeOpt func(*bridgeSpec)

// WithBridgeID fixes the bridge identity byte (default: declaration
// index + 1), which determines the bridge MAC and spanning-tree priority
// ordering.
func WithBridgeID(id byte) BridgeOpt {
	return func(b *bridgeSpec) { b.id = id }
}

// WithNetLoader gives the bridge an IP address and enables the TFTP
// network switchlet loader (§5.2). Every host in the net gets a static
// neighbor entry for it.
func WithNetLoader(addr ipv4.Addr) BridgeOpt {
	return func(b *bridgeSpec) { b.netLoader, b.hasNetLoader = addr, true }
}

// WithSpanningSrc overrides the IEEE spanning-tree source an
// AgilityBridge loads dormant — how the transition experiment injects
// the deliberately buggy 802.1D implementation.
func WithSpanningSrc(src string) BridgeOpt {
	return func(b *bridgeSpec) { b.spanningSrc = src }
}

// WithLogSink installs the bridge's log sink before any switchlet loads,
// so load-time log lines are captured too.
func WithLogSink(fn func(at netsim.Time, bridge, msg string)) BridgeOpt {
	return func(b *bridgeSpec) { b.logSink = fn }
}

// Graph is a declarative extended-LAN description. Declaration methods
// never fail; the first declaration error is reported by Build (so
// topology construction reads straight-line).
type Graph struct {
	Name string

	hosts     []hostSpec
	bridges   []bridgeSpec
	repeaters []repeaterSpec
	taps      []tapSpec
	segments  []segmentSpec
	links     []linkSpec

	shardsReq int
	shardsSet bool
	affine    [][2]nodeRef

	// faultPlan is the attached fault schedule, nil for a clean build
	// (see fault.go).
	faultPlan *fault.Plan

	err error
}

type segmentSpec struct {
	name        string
	propagation netsim.Duration
}

// SegmentOpt customizes a declared segment.
type SegmentOpt func(*segmentSpec)

// WithPropagation fixes the segment's one-way propagation delay (default
// 500ns, a short in-room LAN).
func WithPropagation(d netsim.Duration) SegmentOpt {
	return func(s *segmentSpec) { s.propagation = d }
}

// New creates an empty topology description.
func New(name string) *Graph { return &Graph{Name: name} }

func (g *Graph) fail(format string, args ...interface{}) {
	if g.err == nil {
		g.err = fmt.Errorf("topo %q: %s", g.Name, fmt.Sprintf(format, args...))
	}
}

// AddHost declares a measurement host. An empty name becomes h<n>
// (1-based); MAC and IP are auto-assigned from the declaration index
// unless fixed with WithMAC/WithIP. Auto addresses are
// 02:00:00:00:<hi>:<lo> and 10.0.<hi>.<lo> for host number hi*256+lo,
// matching the paper testbed's h1/h2 addressing.
func (g *Graph) AddHost(name string, opts ...HostOpt) HostID {
	n := len(g.hosts) + 1
	h := hostSpec{
		name: name,
		mac:  ethernet.MAC{0x02, 0x00, 0x00, 0x00, byte(n >> 8), byte(n)},
		ip:   ipv4.Addr{10, 0, byte(n >> 8), byte(n)},
	}
	if h.name == "" {
		h.name = fmt.Sprintf("h%d", n)
	}
	for _, o := range opts {
		o(&h)
	}
	g.hosts = append(g.hosts, h)
	return HostID(n - 1)
}

// AddBridge declares an active bridge with the given switchlet kind and
// port count. An empty name becomes br<idx>; the identity byte defaults
// to declaration index + 1.
func (g *Graph) AddBridge(name string, kind BridgeKind, ports int, opts ...BridgeOpt) BridgeID {
	idx := len(g.bridges)
	b := bridgeSpec{name: name, kind: kind, ports: ports, id: byte(idx + 1)}
	if b.name == "" {
		b.name = fmt.Sprintf("br%d", idx)
	}
	if kind < 0 || int(kind) >= len(bridgeKindNames) {
		g.fail("bridge %s: unknown kind %d", b.name, int(kind))
	}
	if ports < 1 {
		g.fail("bridge %s: needs at least one port (got %d)", b.name, ports)
	}
	for _, o := range opts {
		o(&b)
	}
	g.bridges = append(g.bridges, b)
	return BridgeID(idx)
}

// AddRepeater declares a two-port C buffered repeater. An empty name
// becomes rep<idx>.
func (g *Graph) AddRepeater(name string) RepeaterID {
	idx := len(g.repeaters)
	if name == "" {
		name = fmt.Sprintf("rep%d", idx)
	}
	g.repeaters = append(g.repeaters, repeaterSpec{name: name})
	return RepeaterID(idx)
}

// AddTap declares a bare NIC with the given MAC: an injection or capture
// point without a protocol stack (the paper's measurement-node
// interfaces). An empty name becomes tap<idx>.
func (g *Graph) AddTap(name string, mac ethernet.MAC) TapID {
	idx := len(g.taps)
	if name == "" {
		name = fmt.Sprintf("tap%d", idx)
	}
	g.taps = append(g.taps, tapSpec{name: name, mac: mac})
	return TapID(idx)
}

// AddSegment declares a shared 100 Mb/s segment. An empty name becomes
// seg<idx>.
func (g *Graph) AddSegment(name string, opts ...SegmentOpt) SegmentID {
	idx := len(g.segments)
	if name == "" {
		name = fmt.Sprintf("seg%d", idx)
	}
	s := segmentSpec{name: name}
	for _, o := range opts {
		o(&s)
	}
	g.segments = append(g.segments, s)
	return SegmentID(idx)
}

// Link attaches a node to a segment. Bridge and repeater ports are
// assigned in Link order; hosts and taps have a single interface.
// Same-instant frame delivery on a segment follows attachment order, so
// Link order is part of the deterministic topology contract.
func (g *Graph) Link(n Node, s SegmentID) {
	if n == nil {
		g.fail("Link: nil node")
		return
	}
	r := n.ref()
	if int(s) < 0 || int(s) >= len(g.segments) {
		g.fail("Link: segment %d not declared", int(s))
		return
	}
	l := linkSpec{node: r, seg: s}
	switch r.kind {
	case nodeHost:
		if r.idx < 0 || r.idx >= len(g.hosts) {
			g.fail("Link: host %d not declared", r.idx)
			return
		}
		h := &g.hosts[r.idx]
		if h.linked {
			g.fail("host %s: linked to a second segment (hosts have one interface)", h.name)
			return
		}
		h.linked = true
	case nodeBridge:
		if r.idx < 0 || r.idx >= len(g.bridges) {
			g.fail("Link: bridge %d not declared", r.idx)
			return
		}
		b := &g.bridges[r.idx]
		if b.linkCursor >= b.ports {
			g.fail("bridge %s: more links than its %d ports", b.name, b.ports)
			return
		}
		l.port = b.linkCursor
		b.linkCursor++
	case nodeRepeater:
		if r.idx < 0 || r.idx >= len(g.repeaters) {
			g.fail("Link: repeater %d not declared", r.idx)
			return
		}
		rp := &g.repeaters[r.idx]
		if rp.linkCursor >= 2 {
			g.fail("repeater %s: more links than its 2 ports", rp.name)
			return
		}
		l.port = rp.linkCursor
		rp.linkCursor++
	case nodeTap:
		if r.idx < 0 || r.idx >= len(g.taps) {
			g.fail("Link: tap %d not declared", r.idx)
			return
		}
		t := &g.taps[r.idx]
		if t.linked {
			g.fail("tap %s: linked to a second segment", t.name)
			return
		}
		t.linked = true
	}
	g.links = append(g.links, l)
}

// kindManifests resolves a bridge kind to the ordered switchlet
// manifests it installs. The returned order is the load order, which is
// part of the determinism contract.
func kindManifests(spec *bridgeSpec) []env.Manifest {
	switch spec.kind {
	case DumbBridge:
		return []env.Manifest{switchlets.DumbManifest()}
	case LearningBridge:
		return []env.Manifest{switchlets.LearningManifest()}
	case STPBridge:
		return []env.Manifest{switchlets.LearningManifest(), switchlets.SpanningManifest()}
	case AgilityBridge:
		spanning := switchlets.SpanningManifest()
		if spec.spanningSrc != "" {
			spanning = switchlets.SpanningManifestFrom(spec.spanningSrc)
		}
		return []env.Manifest{
			switchlets.LearningManifest(), switchlets.DECManifest(),
			spanning, switchlets.ControlManifest(),
		}
	}
	return nil
}

// loadKind installs the switchlet set a bridge kind names, through the
// bridge's lifecycle manager.
func loadKind(b *bridge.Bridge, spec *bridgeSpec) error {
	switch spec.kind {
	case EmptyBridge:
		return nil
	case NativeLearningBridge:
		switchlets.InstallNativeLearning(b)
		return nil
	case DumbBridge, LearningBridge, STPBridge, AgilityBridge:
		for _, m := range kindManifests(spec) {
			if _, err := b.Manager().Install(m); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown bridge kind %d", int(spec.kind))
}

// Build materializes the graph: one fresh deterministic simulation with
// every declared node created, wired and loaded. The same Graph builds
// the same simulation every time.
func (g *Graph) Build(cost netsim.CostModel) (*Net, error) {
	if g.err != nil {
		return nil, g.err
	}
	// Address uniqueness: learning tables and the neighbor directory key
	// on these, so collisions are declaration bugs.
	//
	// The directory is the measurement LANs' static neighbor table (no
	// ARP): every host's and every network loader's IP -> MAC, built once
	// here and shared read-only by every host, which skips its own IP. A
	// colliding IP's owner is named through macs, since MACs are checked
	// unique before the IP is.
	macs := map[ethernet.MAC]string{}
	dir := make(map[ipv4.Addr]ethernet.MAC, len(g.hosts))
	for i := range g.hosts {
		h := &g.hosts[i]
		if prev, dup := macs[h.mac]; dup {
			return nil, fmt.Errorf("topo %q: host %s: MAC %v already used by %s", g.Name, h.name, h.mac, prev)
		}
		macs[h.mac] = h.name
		if prev, dup := dir[h.ip]; dup {
			return nil, fmt.Errorf("topo %q: host %s: IP %v already used by %s", g.Name, h.name, h.ip, macs[prev])
		}
		dir[h.ip] = h.mac
	}
	for i := range g.taps {
		t := &g.taps[i]
		if prev, dup := macs[t.mac]; dup {
			return nil, fmt.Errorf("topo %q: tap %s: MAC %v already used by %s", g.Name, t.name, t.mac, prev)
		}
		macs[t.mac] = t.name
	}
	for i := range g.bridges {
		b := &g.bridges[i]
		// The bridge identity MAC is derived from the id byte; a collision
		// (two bridges sharing an id, or an id shadowing a host) corrupts
		// spanning-tree elections and learning tables.
		bmac := bridge.IdentityMAC(b.id)
		if prev, dup := macs[bmac]; dup {
			return nil, fmt.Errorf("topo %q: bridge %s: identity MAC %v (id %d) already used by %s", g.Name, b.name, bmac, b.id, prev)
		}
		macs[bmac] = b.name
		if b.hasNetLoader {
			if prev, dup := dir[b.netLoader]; dup {
				return nil, fmt.Errorf("topo %q: bridge %s: loader IP %v already used by %s", g.Name, b.name, b.netLoader, macs[prev])
			}
			dir[b.netLoader] = bmac
		}
	}

	// Every endpoint must be wired: an unlinked host or tap would build
	// silently and then panic (or measure nothing) the first time it
	// transmits.
	for i := range g.hosts {
		if !g.hosts[i].linked {
			return nil, fmt.Errorf("topo %q: host %s declared but never linked", g.Name, g.hosts[i].name)
		}
	}
	for i := range g.taps {
		if !g.taps[i].linked {
			return nil, fmt.Errorf("topo %q: tap %s declared but never linked", g.Name, g.taps[i].name)
		}
	}

	// Shard assignment: an explicit Graph.Shards request wins, otherwise
	// the process default applies. Partition falls back to serial (nil
	// plan) whenever the graph is too small to pay for synchronization,
	// in which case the build below is exactly the single-engine build.
	shards := DefaultShards
	if g.shardsSet {
		shards = g.shardsReq
	}
	var plan *Plan
	if shards > 1 {
		plan, _ = Partition(g, shards)
	}

	n := &Net{Cost: cost, Graph: g, Plan: plan}
	var sim *netsim.Sim
	nodeSim := func(r nodeRef) *netsim.Sim { return sim }
	segSim := func(si int) *netsim.Sim { return sim }
	if plan == nil {
		sim = netsim.New()
	} else {
		n.coord = netsim.NewCoordinator(plan.Shards)
		sim = n.coord.Control()
		nodeSim = func(r nodeRef) *netsim.Sim { return n.coord.Shard(plan.nodeShard(r)) }
		segSim = func(si int) *netsim.Sim { return n.coord.Shard(plan.segOwner[si]) }
	}
	n.Sim = sim

	for si := range g.segments {
		seg := netsim.NewSegment(segSim(si), g.segments[si].name)
		if p := g.segments[si].propagation; p != 0 {
			seg.Propagation = p
		}
		n.segments = append(n.segments, seg)
	}
	for i := range g.hosts {
		h := &g.hosts[i]
		host := workload.NewHost(nodeSim(nodeRef{nodeHost, i}), h.name, h.mac, h.ip, cost)
		host.SetDirectory(dir)
		n.hosts = append(n.hosts, host)
	}
	for i := range g.repeaters {
		n.repeaters = append(n.repeaters, baseline.NewRepeater(nodeSim(nodeRef{nodeRepeater, i}), g.repeaters[i].name, cost))
	}
	for i := range g.taps {
		n.taps = append(n.taps, netsim.NewNIC(nodeSim(nodeRef{nodeTap, i}), g.taps[i].name, g.taps[i].mac))
	}
	var logs *shardedLogs
	if plan != nil {
		logs = &shardedLogs{}
	}
	for i := range g.bridges {
		bs := &g.bridges[i]
		br := bridge.New(nodeSim(nodeRef{nodeBridge, i}), bs.name, bs.id, bs.ports, cost)
		if bs.logSink != nil {
			if logs != nil {
				// Sharded build: bridges log concurrently, so each buffers
				// its lines locally and the coordinator merges them in a
				// deterministic (time, bridge, sequence) order at every
				// quiescent point.
				br.LogSink = logs.sinkFor(i, bs.logSink)
			} else {
				br.LogSink = bs.logSink
			}
		}
		if bs.hasNetLoader {
			br.EnableNetLoader(bs.netLoader)
		}
		n.bridges = append(n.bridges, br)
	}
	if logs != nil && len(logs.bridges) > 0 {
		n.coord.OnQuiesce(logs.flush)
	}

	// Wire in declaration order: attachment order fixes same-instant
	// delivery order on each segment.
	for _, l := range g.links {
		var nic *netsim.NIC
		switch l.node.kind {
		case nodeHost:
			nic = n.hosts[l.node.idx].NIC
		case nodeBridge:
			nic = n.bridges[l.node.idx].Port(l.port)
		case nodeRepeater:
			nic = n.repeaters[l.node.idx].Port(l.port)
		case nodeTap:
			nic = n.taps[l.node.idx]
		}
		n.segments[l.seg].Attach(nic)
	}

	// Load switchlets after wiring, as the hand-built networks did: the
	// only build-time events are the switchlets' timer arms, so their
	// relative order (bridge declaration order) is the determinism
	// contract.
	for i := range g.bridges {
		if err := loadKind(n.bridges[i], &g.bridges[i]); err != nil {
			return nil, fmt.Errorf("topo %q: bridge %s (%v): %w", g.Name, g.bridges[i].name, g.bridges[i].kind, err)
		}
	}

	// Fault plane last: impairment streams install on already-wired
	// entities, and scheduled events are the plan's only build-time
	// events. A clean build (no plan, no process-wide profile) skips
	// this entirely.
	if plan := g.effectiveFaultPlan(); plan != nil {
		if err := n.applyFaults(plan); err != nil {
			return nil, fmt.Errorf("topo %q: %w", g.Name, err)
		}
	}

	// Telemetry is opt-in process-wide (the SDK's EnableMetrics): every
	// net built while it is on publishes into the default hub.
	// Instruments only observe at quiescent points, so the built
	// simulation's virtual-time behaviour is identical either way.
	if metrics.Enabled() {
		n.EnableMetrics()
	}
	// Same opt-in shape for the causal tracing plane (the SDK's
	// EnableTracing); events never feed back into the simulation.
	if tracing.Enabled() {
		n.EnableTracing(tracing.GetDefaultConfig())
	}
	return n, nil
}

// MustBuild is Build for statically correct topologies; a build error is
// a programming bug, not a runtime condition.
func (g *Graph) MustBuild(cost netsim.CostModel) *Net {
	n, err := g.Build(cost)
	if err != nil {
		panic("topo: " + err.Error())
	}
	return n
}
