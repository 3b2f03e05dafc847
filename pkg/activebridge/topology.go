package activebridge

import (
	"github.com/switchware/activebridge/internal/topo"
)

// Topology is a declarative extended-LAN description: declare hosts,
// bridges, repeaters, taps and segments, link them, then Build a
// deterministic simulation with typed handles onto every node.
type Topology = topo.Graph

// NewTopology creates an empty topology description.
func NewTopology(name string) *Topology { return topo.New(name) }

// Net is a materialized Topology: one deterministic simulation plus
// typed handles onto every declared node.
type Net = topo.Net

// Typed node identifiers returned by the Topology declaration methods.
type (
	// HostID names a declared measurement host.
	HostID = topo.HostID
	// BridgeID names a declared active bridge.
	BridgeID = topo.BridgeID
	// RepeaterID names a declared buffered repeater.
	RepeaterID = topo.RepeaterID
	// TapID names a declared bare NIC (injection/capture point).
	TapID = topo.TapID
	// SegmentID names a declared segment.
	SegmentID = topo.SegmentID
)

// BridgeKind selects the switchlet set a declared bridge installs after
// wiring.
type BridgeKind = topo.BridgeKind

// The declared bridge kinds, mirroring the paper's configurations.
const (
	// EmptyBridge installs nothing: behaviour arrives later, through the
	// Manager or the network loader.
	EmptyBridge = topo.EmptyBridge
	// DumbBridge installs the buffered-repeater switchlet.
	DumbBridge = topo.DumbBridge
	// LearningBridge installs the swl learning switchlet.
	LearningBridge = topo.LearningBridge
	// NativeLearningBridge installs the native-code learning switchlet
	// (the paper's envisioned native-compilation ablation).
	NativeLearningBridge = topo.NativeLearningBridge
	// STPBridge installs learning plus the IEEE spanning tree.
	STPBridge = topo.STPBridge
	// AgilityBridge installs the full §5.4 transition stack: learning,
	// DEC (running), IEEE (dormant), control.
	AgilityBridge = topo.AgilityBridge
)

// Sharded execution. A Topology is serial by default: Build materializes
// one single-threaded simulation. Calling Topology.Shards(n) asks Build
// to partition the net across n shard engines running under a
// conservative coordinator — results stay byte-identical to serial at
// any shard count. It is not a speed-up at LAN latencies (two shards run
// a 256-bridge fabric at under half the speed of one engine; README,
// "Sharded engine"). Small nets refuse to shard and quietly build serial.
//
// Rule of thumb for embedders: declare Topology.Affine(a, b) for any two
// hosts coupled outside the simulated network — above all the endpoints
// of a closed-loop stream whose receiver releases the sender directly —
// so the partitioner keeps them on one engine.
var (
	// Partition computes (without building) the shard assignment Build
	// would use, for inspection and capacity planning.
	Partition = topo.Partition
)

// Plan is a computed shard assignment: one shard per declared node and
// an owner shard per segment.
type Plan = topo.Plan

// Topology declaration options.
var (
	// WithMAC fixes a declared host's MAC address.
	WithMAC = topo.WithMAC
	// WithIP fixes a declared host's IP address.
	WithIP = topo.WithIP
	// WithBridgeID fixes a declared bridge's identity byte.
	WithBridgeID = topo.WithBridgeID
	// WithNetLoader gives a declared bridge an IP address and the TFTP
	// network switchlet loader.
	WithNetLoader = topo.WithNetLoader
	// WithSpanningSrc overrides the IEEE source an AgilityBridge loads
	// dormant.
	WithSpanningSrc = topo.WithSpanningSrc
	// WithLogSink installs a bridge's log sink before any switchlet
	// loads.
	WithLogSink = topo.WithLogSink
	// WithPropagation fixes a declared segment's one-way propagation
	// delay.
	WithPropagation = topo.WithPropagation
)
