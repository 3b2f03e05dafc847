package switchlets

import (
	"runtime"
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/env"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/stp"
	"github.com/switchware/activebridge/internal/vm"
)

// install routes a manifest through the bridge's lifecycle manager.
func install(b *bridge.Bridge, m env.Manifest) error {
	_, err := b.Manager().Install(m)
	return err
}

func loadDumb(b *bridge.Bridge) error     { return install(b, DumbManifest()) }
func loadLearning(b *bridge.Bridge) error { return install(b, LearningManifest()) }
func loadDEC(b *bridge.Bridge) error      { return install(b, DECManifest()) }

// loadControl installs the protocol-transition control switchlet; both
// protocol switchlets must already be loaded (DEC running, IEEE dormant)
// or the load fails, per Table 1's preconditions.
func loadControl(b *bridge.Bridge) error { return install(b, ControlManifest()) }

// compileAndLoad loads raw swl source, bypassing the manifest's
// capability grant.
func compileAndLoad(b *bridge.Bridge, name, src string) error {
	obj, _, err := vm.Compile(name, src, b.Loader.SigEnv())
	if err != nil {
		return err
	}
	return b.LoadObjectBytes(obj.Encode())
}

// testHost is a plain station on a segment: records received test frames.
type testHost struct {
	nic *netsim.NIC
	rx  [][]byte
}

func newHost(sim *netsim.Sim, name string, mac ethernet.MAC) *testHost {
	h := &testHost{nic: netsim.NewNIC(sim, name, mac)}
	h.nic.SetRecv(func(_ *netsim.NIC, raw []byte) {
		h.rx = append(h.rx, append([]byte(nil), raw...))
	})
	return h
}

func (h *testHost) send(t *testing.T, dst ethernet.MAC, payload int) {
	t.Helper()
	fr := ethernet.Frame{Dst: dst, Src: h.nic.MAC, Type: ethernet.TypeTest, Payload: make([]byte, payload)}
	raw, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	h.nic.Send(raw)
}

// twoLANs builds host1 -- LAN1 -- bridge -- LAN2 -- host2 (paper Figure 7).
func twoLANs(t *testing.T) (*netsim.Sim, *bridge.Bridge, *testHost, *testHost) {
	t.Helper()
	sim := netsim.New()
	cost := netsim.DefaultCostModel()
	b := bridge.New(sim, "br0", 1, 2, cost)
	lan1 := netsim.NewSegment(sim, "lan1")
	lan2 := netsim.NewSegment(sim, "lan2")
	h1 := newHost(sim, "h1", ethernet.MAC{2, 0, 0, 0, 0, 1})
	h2 := newHost(sim, "h2", ethernet.MAC{2, 0, 0, 0, 0, 2})
	lan1.Attach(h1.nic)
	lan1.Attach(b.Port(0))
	lan2.Attach(h2.nic)
	lan2.Attach(b.Port(1))
	return sim, b, h1, h2
}

func TestNoSwitchletNoForwarding(t *testing.T) {
	sim, b, h1, h2 := twoLANs(t)
	sim.Schedule(0, func() { h1.send(t, h2.nic.MAC, 100) })
	sim.Run(netsim.Time(netsim.Second))
	if len(h2.rx) != 0 {
		t.Error("bridge forwarded without any switchlet loaded")
	}
	if b.Stats.NoHandlerDrops == 0 {
		t.Error("drop not accounted")
	}
}

func TestDumbSwitchletRepeats(t *testing.T) {
	sim, b, h1, h2 := twoLANs(t)
	if err := loadDumb(b); err != nil {
		t.Fatal(err)
	}
	if got := b.DefaultHandlerName(); got != "vm-default" {
		t.Errorf("handler = %q", got)
	}
	sim.Schedule(0, func() { h1.send(t, h2.nic.MAC, 100) })
	sim.Schedule(0, func() { h1.send(t, ethernet.Broadcast, 64) })
	sim.Run(netsim.Time(netsim.Second))
	if len(h2.rx) != 2 {
		t.Fatalf("h2 received %d frames, want 2 (unicast+broadcast repeated)", len(h2.rx))
	}
	// The repeated frame must be byte-identical (bridges do not modify
	// frames; the FCS survives).
	dst, _ := ethernet.PeekDst(h2.rx[0])
	if dst != h2.nic.MAC {
		t.Errorf("forwarded dst = %v", dst)
	}
	var fr ethernet.Frame
	if err := fr.Unmarshal(h2.rx[0]); err != nil {
		t.Errorf("forwarded frame corrupt: %v", err)
	}
}

func TestDumbDoesNotEchoBack(t *testing.T) {
	sim, b, h1, _ := twoLANs(t)
	if err := loadDumb(b); err != nil {
		t.Fatal(err)
	}
	sim.Schedule(0, func() { h1.send(t, ethernet.Broadcast, 64) })
	sim.Run(netsim.Time(netsim.Second))
	// h1 must not get its own frame back from the bridge.
	if len(h1.rx) != 0 {
		t.Errorf("frame echoed to its source LAN: %d", len(h1.rx))
	}
}

func TestLearningStopsFlooding(t *testing.T) {
	sim, b, h1, h2 := twoLANs(t)
	// Add a third LAN so flood-vs-directed is observable.
	lan3 := netsim.NewSegment(sim, "lan3")
	b3 := bridge.New(sim, "brX", 9, 2, netsim.DefaultCostModel())
	_ = b3 // only the extra segment + host matter
	h3 := newHost(sim, "h3", ethernet.MAC{2, 0, 0, 0, 0, 3})
	lan3.Attach(h3.nic)
	// Re-wire: need a 3-port bridge. Build fresh.
	sim = netsim.New()
	b = bridge.New(sim, "br0", 1, 3, netsim.DefaultCostModel())
	lans := []*netsim.Segment{
		netsim.NewSegment(sim, "lan1"),
		netsim.NewSegment(sim, "lan2"),
		netsim.NewSegment(sim, "lan3"),
	}
	h1 = newHost(sim, "h1", ethernet.MAC{2, 0, 0, 0, 0, 1})
	h2 = newHost(sim, "h2", ethernet.MAC{2, 0, 0, 0, 0, 2})
	h3 = newHost(sim, "h3", ethernet.MAC{2, 0, 0, 0, 0, 3})
	for i, h := range []*testHost{h1, h2, h3} {
		lans[i].Attach(h.nic)
		lans[i].Attach(b.Port(i))
	}
	if err := loadLearning(b); err != nil {
		t.Fatal(err)
	}
	// Flood-vs-directed is observed on the third segment's frame counter
	// (h3's NIC rightly filters unicast frames not addressed to it).
	// h1 -> h2: unknown destination, flooded to LANs 2 and 3.
	sim.Schedule(0, func() { h1.send(t, h2.nic.MAC, 100) })
	sim.Run(netsim.Time(100 * netsim.Millisecond))
	if len(h2.rx) != 1 {
		t.Fatalf("h2 rx = %d, want 1", len(h2.rx))
	}
	if lans[2].Frames != 1 {
		t.Fatalf("first frame should flood onto lan3: frames = %d", lans[2].Frames)
	}
	// h2 -> h1: bridge has learned h1's port; lan3 must NOT see it.
	sim.Schedule(sim.Now()+1, func() { h2.send(t, h1.nic.MAC, 100) })
	sim.Run(sim.Now() + netsim.Time(100*netsim.Millisecond))
	if len(h1.rx) != 1 {
		t.Fatalf("h1 should receive reply, got %d", len(h1.rx))
	}
	if lans[2].Frames != 1 {
		t.Errorf("learning failed: reply flooded onto lan3 (frames=%d)", lans[2].Frames)
	}
	// And now h1 -> h2 goes directly too (h2 learned from its reply).
	sim.Schedule(sim.Now()+1, func() { h1.send(t, h2.nic.MAC, 50) })
	sim.Run(sim.Now() + netsim.Time(100*netsim.Millisecond))
	if len(h2.rx) != 2 {
		t.Errorf("h2 should have 2 frames, got %d", len(h2.rx))
	}
	if lans[2].Frames != 1 {
		t.Errorf("directed frame flooded onto lan3")
	}
}

func TestLearningFuncRegistrations(t *testing.T) {
	sim, b, h1, h2 := twoLANs(t)
	if err := loadLearning(b); err != nil {
		t.Fatal(err)
	}
	sim.Schedule(0, func() { h1.send(t, h2.nic.MAC, 64) })
	sim.Run(netsim.Time(netsim.Second))
	fn, ok := b.Funcs.Lookup("learning.size")
	if !ok {
		t.Fatal("learning.size not registered")
	}
	v, err := b.Machine.Invoke(fn, "")
	if err != nil {
		t.Fatal(err)
	}
	if v != "1" {
		t.Errorf("learned table size = %v, want 1", v)
	}
	fn, _ = b.Funcs.Lookup("learning.lookup")
	v, err = b.Machine.Invoke(fn, string(h1.nic.MAC[:]))
	if err != nil {
		t.Fatal(err)
	}
	if v != "0" {
		t.Errorf("learning.lookup(h1) = %v, want port 0", v)
	}
}

// ringNet builds a ring of n bridges (each 2 ports) with one host per
// segment: segment i connects bridge[i].port1 and bridge[(i+1)%n].port0
// plus host i.
type ringNet struct {
	sim     *netsim.Sim
	bridges []*bridge.Bridge
	hosts   []*testHost
	segs    []*netsim.Segment
}

func buildRing(t *testing.T, n int) *ringNet {
	t.Helper()
	r := &ringNet{sim: netsim.New()}
	cost := netsim.DefaultCostModel()
	for i := 0; i < n; i++ {
		r.bridges = append(r.bridges, bridge.New(r.sim, "br"+string(rune('0'+i)), byte(i+1), 2, cost))
	}
	for i := 0; i < n; i++ {
		seg := netsim.NewSegment(r.sim, "ring"+string(rune('0'+i)))
		r.segs = append(r.segs, seg)
		h := newHost(r.sim, "h"+string(rune('0'+i)), ethernet.MAC{2, 0, 0, 0, 0x10, byte(i + 1)})
		r.hosts = append(r.hosts, h)
		seg.Attach(h.nic)
		seg.Attach(r.bridges[i].Port(1))
		seg.Attach(r.bridges[(i+1)%n].Port(0))
	}
	return r
}

func (r *ringNet) loadAll(t *testing.T, load func(*bridge.Bridge) error) {
	t.Helper()
	for _, b := range r.bridges {
		if err := load(b); err != nil {
			t.Fatal(err)
		}
	}
}

// loadFullBridge installs the §5.3 stack: learning + spanning tree.
func loadFullBridge(b *bridge.Bridge) error {
	if err := loadLearning(b); err != nil {
		return err
	}
	return install(b, SpanningManifest())
}

func TestRingWithoutSTPStorms(t *testing.T) {
	r := buildRing(t, 3)
	r.loadAll(t, loadLearning)
	r.sim.MaxEvents = 300000
	r.sim.Schedule(0, func() { r.hosts[0].send(t, ethernet.Broadcast, 64) })
	r.sim.Run(netsim.Time(5 * netsim.Second))
	// One broadcast in a bridged loop without a spanning tree must
	// multiply: total forwarded frames far exceeds the single injection.
	var forwarded uint64
	for _, b := range r.bridges {
		forwarded += b.Stats.FramesSent
	}
	if forwarded < 100 {
		t.Errorf("expected a broadcast storm, saw only %d forwarded frames", forwarded)
	}
}

func TestRingWithSTPConvergesAndCarriesTraffic(t *testing.T) {
	r := buildRing(t, 3)
	r.loadAll(t, loadFullBridge)
	// Let the spanning tree converge past 2x forward delay.
	r.sim.Run(netsim.Time(40 * netsim.Second))

	// Count blocked ports across the ring: exactly one breaks the loop.
	blocked := 0
	for _, b := range r.bridges {
		for p := 0; p < b.NumPorts(); p++ {
			if b.PortBlocked(p) {
				blocked++
			}
		}
	}
	if blocked != 1 {
		t.Errorf("blocked ports = %d, want exactly 1", blocked)
	}

	// A broadcast now reaches every other host exactly once: no storm.
	start := r.sim.Now()
	r.sim.Schedule(start+1, func() { r.hosts[0].send(t, ethernet.Broadcast, 64) })
	r.sim.Run(start + netsim.Time(2*netsim.Second))
	for i := 1; i < len(r.hosts); i++ {
		n := 0
		for _, raw := range r.hosts[i].rx {
			if ty, _ := ethernet.PeekType(raw); ty == ethernet.TypeTest {
				n++
			}
		}
		if n != 1 {
			t.Errorf("host %d saw broadcast %d times, want 1", i, n)
		}
	}

	// Unicast flows host0 -> host1 and learning directs it.
	r.sim.Schedule(r.sim.Now()+1, func() { r.hosts[0].send(t, r.hosts[1].nic.MAC, 200) })
	r.sim.Run(r.sim.Now() + netsim.Time(2*netsim.Second))
	got := 0
	for _, raw := range r.hosts[1].rx {
		if ty, _ := ethernet.PeekType(raw); ty == ethernet.TypeTest {
			got++
		}
	}
	if got < 2 { // broadcast + unicast
		t.Errorf("host 1 test frames = %d, want >= 2", got)
	}
}

// stpTickRig builds a converged three-port 802.1D bridge at the given
// switchlet optimization level (port 0 towards the root, ports 1 and 2
// designated) and returns it with one cycle of its steady state: one
// configuration BPDU from the root port, then one hello tick.
func stpTickRig(t *testing.T, optLevel int) (*bridge.Bridge, func()) {
	t.Helper()
	sim := netsim.New()
	b := bridge.New(sim, "br", 9, 3, netsim.DefaultCostModel())
	b.Loader.OptLevel = optLevel
	rootNIC := netsim.NewNIC(sim, "root", ethernet.MAC{2, 0, 0, 0, 0, 1})
	for p := 0; p < 3; p++ {
		seg := netsim.NewSegment(sim, "lan"+string(rune('0'+p)))
		seg.Attach(b.Port(p))
		if p == 0 {
			seg.Attach(rootNIC)
		}
	}
	if err := install(b, SpanningManifest()); err != nil {
		t.Fatal(err)
	}
	rootID := stp.MakeBridgeID(0x8000, rootNIC.MAC)
	fr := ethernet.Frame{
		Dst: ethernet.AllBridges, Src: rootNIC.MAC, Type: ethernet.TypeBPDU,
		Payload: stp.EncodeIEEE(stp.Vector{RootID: rootID, Bridge: rootID}, stp.Config{}.DefaultTimers()),
	}
	bpdu, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	hello := 2 * netsim.Second
	cycle := func() {
		rootNIC.Send(bpdu)
		sim.Run(sim.Now() + netsim.Time(hello))
	}
	// Converge: past two forward delays every tree port is forwarding.
	for i := 0; i < 20; i++ {
		cycle()
	}
	if b.PortBlocked(0) || b.PortBlocked(1) || b.PortBlocked(2) {
		t.Fatalf("not converged: blocked = %v %v %v", b.PortBlocked(0), b.PortBlocked(1), b.PortBlocked(2))
	}
	return b, cycle
}

// TestSTPTickAllocBudget is the control path's allocation budget, the
// counterpart of TestFrameDispatchAllocBudget for the dispatches that carry
// no data: one stpTickRig cycle. The two dispatches build some two hundred
// strings between them — vectors, BPDUs, a hash key per table access — and
// the budget is 1 host allocation: the slabs and arena chunks everything
// is carved from, amortized, including the two wire frames the tick seals
// into the bridge's frame slab. Before the string arena one cycle cost
// about two hundred; while each sealed frame was its own allocation, 2.
//
// Host bytes have their own budget, 880 per cycle over 2000 cycles. Each
// concat of a right-nested chain used to build and box a string only the
// next concat read; one cycle cost 1420 B then, and 985 with the chains
// fused into q.concat_n. Every string of at most two bytes (be16's
// `String.make 1 hi ^ String.make 1 lo`) now comes from a shared table, so
// it costs no arena bytes and no header cell: about 820. The fused chains
// and the shared strings must still meter Steps and AllocBytes exactly as
// the wire concats do, so the window is replayed at -O0 and both counters
// must match.
func TestSTPTickAllocBudget(t *testing.T) {
	b, cycle := stpTickRig(t, bridge.DefaultOptLevel)
	st := b.Stats
	allocs := testing.AllocsPerRun(200, cycle)
	ticks, sent := b.Stats.TimerFires-st.TimerFires, b.Stats.FramesSent-st.FramesSent
	if ticks != 201 || sent != 2*ticks || b.Stats.FramesDelivered-st.FramesDelivered != 201 || b.Stats.HandlerTraps != 0 {
		t.Fatalf("cycle is not one BPDU in, one tick, two configs out: %d ticks, %d sent, %d delivered, %d traps",
			ticks, sent, b.Stats.FramesDelivered-st.FramesDelivered, b.Stats.HandlerTraps)
	}
	if allocs > 1 {
		t.Fatalf("STP tick + received BPDU allocs/cycle = %v, want <= 1", allocs)
	}

	const window = 2000
	runWindow := func(b *bridge.Bridge, cycle func()) (steps, alloc, hostBytes uint64) {
		var ms0, ms1 runtime.MemStats
		steps, alloc = b.Machine.Steps, b.Machine.AllocBytes
		runtime.ReadMemStats(&ms0)
		for i := 0; i < window; i++ {
			cycle()
		}
		runtime.ReadMemStats(&ms1)
		return b.Machine.Steps - steps, b.Machine.AllocBytes - alloc, ms1.TotalAlloc - ms0.TotalAlloc
	}
	steps, alloc, hostBytes := runWindow(b, cycle)
	perCycle := float64(hostBytes) / window
	t.Logf("STP tick + received BPDU host bytes/cycle = %.1f", perCycle)
	if perCycle > 880 {
		t.Errorf("STP tick + received BPDU host bytes/cycle = %.1f, want <= 880", perCycle)
	}

	naive, naiveCycle := stpTickRig(t, 0)
	for i := 0; i < 201; i++ { // the cycles AllocsPerRun ran
		naiveCycle()
	}
	wantSteps, wantAlloc, _ := runWindow(naive, naiveCycle)
	if steps != wantSteps || alloc != wantAlloc || b.Machine.Steps != naive.Machine.Steps || b.Machine.AllocBytes != naive.Machine.AllocBytes {
		t.Errorf("window metering: Steps %d, AllocBytes %d (totals %d, %d); -O0 reads %d, %d (totals %d, %d)",
			steps, alloc, b.Machine.Steps, b.Machine.AllocBytes,
			wantSteps, wantAlloc, naive.Machine.Steps, naive.Machine.AllocBytes)
	}
}

// learnRig builds a learning bridge between two LANs (paper Figure 7) at
// the given switchlet optimization level, with both stations learned, and
// returns it with one cycle of the forwarding path: a 1 KB unicast frame
// from station 1 to station 2, run to completion.
func learnRig(t *testing.T, optLevel int) (*bridge.Bridge, func()) {
	t.Helper()
	sim := netsim.New()
	b := bridge.New(sim, "br0", 1, 2, netsim.DefaultCostModel())
	b.Loader.OptLevel = optLevel
	n1 := netsim.NewNIC(sim, "n1", ethernet.MAC{2, 0, 0, 0, 0, 1})
	n2 := netsim.NewNIC(sim, "n2", ethernet.MAC{2, 0, 0, 0, 0, 2})
	delivered := 0
	n2.SetRecv(func(*netsim.NIC, []byte) { delivered++ })
	lan1, lan2 := netsim.NewSegment(sim, "lan1"), netsim.NewSegment(sim, "lan2")
	lan1.Attach(n1)
	lan1.Attach(b.Port(0))
	lan2.Attach(n2)
	lan2.Attach(b.Port(1))
	if err := loadLearning(b); err != nil {
		t.Fatal(err)
	}
	frame := func(src, dst ethernet.MAC) []byte {
		raw, err := (&ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeTest, Payload: make([]byte, 1024)}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	to1, to2 := frame(n2.MAC, n1.MAC), frame(n1.MAC, n2.MAC)
	n2.Send(to1)
	sim.RunAll()
	cycle := func() {
		n1.Send(to2)
		sim.RunAll()
	}
	cycle()
	if delivered != 1 || b.Stats.HandlerTraps != 0 {
		t.Fatalf("learning rig: %d frames reached station 2, %d traps", delivered, b.Stats.HandlerTraps)
	}
	return b, cycle
}

// TestLearningForwardAllocBudget is the data path's host-byte budget: a
// learning bridge forwarding 20 000 unicast frames. Each frame records
// (inport, now) in the switchlet's table; that tuple is its elements and
// nothing more (a boxed slice header made it 72.6 B and 0.0314 mallocs a
// frame), so a frame may cost at most 56 host bytes and 0.025 mallocs:
// the tuple slab, the timestamp's int slab, amortized. The window's Steps
// and AllocBytes must equal an -O0 replay's.
func TestLearningForwardAllocBudget(t *testing.T) {
	const window = 20_000
	runWindow := func(b *bridge.Bridge, cycle func()) (steps, alloc, hostBytes, mallocs uint64) {
		var ms0, ms1 runtime.MemStats
		steps, alloc = b.Machine.Steps, b.Machine.AllocBytes
		runtime.ReadMemStats(&ms0)
		for i := 0; i < window; i++ {
			cycle()
		}
		runtime.ReadMemStats(&ms1)
		return b.Machine.Steps - steps, b.Machine.AllocBytes - alloc, ms1.TotalAlloc - ms0.TotalAlloc, ms1.Mallocs - ms0.Mallocs
	}
	b, cycle := learnRig(t, bridge.DefaultOptLevel)
	sent := b.Stats.FramesSent
	steps, alloc, hostBytes, mallocs := runWindow(b, cycle)
	if got := b.Stats.FramesSent - sent; got != window || b.Stats.HandlerTraps != 0 {
		t.Fatalf("window forwarded %d frames with %d traps, want %d and none", got, b.Stats.HandlerTraps, window)
	}
	t.Logf("per frame: %.1f host B, %.4f mallocs, %.1f Steps, %.1f AllocBytes",
		float64(hostBytes)/window, float64(mallocs)/window, float64(steps)/window, float64(alloc)/window)
	if perFrame := float64(hostBytes) / window; perFrame > 56 {
		t.Errorf("learning forward host bytes/frame = %.1f, want <= 56", perFrame)
	}
	if perFrame := float64(mallocs) / window; perFrame > 0.025 {
		t.Errorf("learning forward mallocs/frame = %.4f, want <= 0.025", perFrame)
	}

	naive, naiveCycle := learnRig(t, 0)
	wantSteps, wantAlloc, _, _ := runWindow(naive, naiveCycle)
	if steps != wantSteps || alloc != wantAlloc {
		t.Errorf("window metering: Steps %d, AllocBytes %d; -O0 reads %d, %d", steps, alloc, wantSteps, wantAlloc)
	}
}

func TestSTPTreeInfoConsistentAcrossBridges(t *testing.T) {
	r := buildRing(t, 3)
	r.loadAll(t, loadFullBridge)
	r.sim.Run(netsim.Time(40 * netsim.Second))
	// All bridges must agree on the root (bridge 1 has the lowest MAC).
	var roots []string
	for _, b := range r.bridges {
		fn, ok := b.Funcs.Lookup("ieee.tree")
		if !ok {
			t.Fatal("ieee.tree not registered")
		}
		v, err := b.Machine.Invoke(fn, "")
		if err != nil {
			t.Fatal(err)
		}
		s := v.(string)
		roots = append(roots, strings.Fields(s)[0])
	}
	for i := 1; i < len(roots); i++ {
		if roots[i] != roots[0] {
			t.Errorf("bridges disagree on root: %v", roots)
		}
	}
	wantRoot := "root=8000" + macHex(r.bridges[0].MAC())
	if roots[0] != wantRoot {
		t.Errorf("root = %q, want %q", roots[0], wantRoot)
	}
}

func macHex(m ethernet.MAC) string {
	const hexdig = "0123456789abcdef"
	out := make([]byte, 0, 12)
	for _, b := range m {
		out = append(out, hexdig[b>>4], hexdig[b&15])
	}
	return string(out)
}

func TestNativeLearningMatchesDSLBehaviour(t *testing.T) {
	sim, b, h1, h2 := twoLANs(t)
	nl := InstallNativeLearning(b)
	sim.Schedule(0, func() { h1.send(t, h2.nic.MAC, 100) })
	sim.Run(netsim.Time(100 * netsim.Millisecond))
	if len(h2.rx) != 1 {
		t.Fatalf("h2 rx = %d", len(h2.rx))
	}
	if nl.Lookup(h1.nic.MAC) != 0 {
		t.Errorf("native learning did not learn h1")
	}
	if nl.Size() != 1 {
		t.Errorf("size = %d", nl.Size())
	}
}

func TestVMCostChargedOnDataPath(t *testing.T) {
	sim, b, h1, h2 := twoLANs(t)
	if err := loadLearning(b); err != nil {
		t.Fatal(err)
	}
	sim.Schedule(0, func() { h1.send(t, h2.nic.MAC, 1000) })
	sim.Run(netsim.Time(netsim.Second))
	if b.Stats.VMTime == 0 {
		t.Error("VM time not accounted")
	}
	if b.Stats.KernelTime == 0 {
		t.Error("kernel time not accounted")
	}
	// The learning-bridge VM cost per frame should be in the paper's
	// regime: hundreds of microseconds (0.3-0.6 ms).
	perFrame := b.Stats.VMTime / netsim.Duration(b.Stats.FramesDelivered)
	if perFrame < 100*netsim.Microsecond || perFrame > 1200*netsim.Microsecond {
		t.Errorf("VM cost per frame = %v, want ~0.3-0.6 ms", perFrame)
	}
}

func TestSwitchletSourcesCompileStandalone(t *testing.T) {
	// Every shipped source must compile against a bridge environment.
	sim := netsim.New()
	b := bridge.New(sim, "br", 1, 2, netsim.DefaultCostModel())
	for _, s := range []struct{ name, src string }{
		{ModDumb, DumbSrc},
		{ModLearning, LearningSrc},
		{ModSpanning, SpanningSrc},
		{ModDEC, DECSrc},
		{"Spanbug", BuggySpanningSrc},
	} {
		if err := compileAndLoad(b, s.name, s.src); err != nil && s.name != "Spanbug" {
			t.Errorf("%s: %v", s.name, err)
		}
	}
}

func TestControlRequiresPreconditions(t *testing.T) {
	sim, b, _, _ := twoLANs(t)
	_ = sim
	// Loading control without the protocols must fail loudly.
	if err := loadControl(b); err == nil {
		t.Error("control load should fail without protocol switchlets")
	}
}

func TestFiveBridgeRingConverges(t *testing.T) {
	// A larger loop: five bridges, still exactly one blocked port, all
	// agreeing on the root, broadcast reaching each host exactly once.
	r := buildRing(t, 5)
	r.loadAll(t, loadFullBridge)
	r.sim.Run(netsim.Time(45 * netsim.Second))
	blocked := 0
	for _, b := range r.bridges {
		for p := 0; p < b.NumPorts(); p++ {
			if b.PortBlocked(p) {
				blocked++
			}
		}
	}
	if blocked != 1 {
		t.Errorf("blocked ports = %d, want 1", blocked)
	}
	start := r.sim.Now()
	r.sim.Schedule(start+1, func() { r.hosts[2].send(t, ethernet.Broadcast, 64) })
	r.sim.Run(start + netsim.Time(2*netsim.Second))
	for i, h := range r.hosts {
		if i == 2 {
			continue
		}
		n := 0
		for _, raw := range h.rx {
			if ty, _ := ethernet.PeekType(raw); ty == ethernet.TypeTest {
				n++
			}
		}
		if n != 1 {
			t.Errorf("host %d saw broadcast %d times", i, n)
		}
	}
}

func TestDECStandaloneRingConverges(t *testing.T) {
	// The DEC-style protocol works on its own, not just as the
	// transition's "old" protocol.
	r := buildRing(t, 3)
	r.loadAll(t, func(b *bridge.Bridge) error {
		if err := loadLearning(b); err != nil {
			return err
		}
		return loadDEC(b)
	})
	r.sim.Run(netsim.Time(40 * netsim.Second))
	blocked := 0
	for _, b := range r.bridges {
		for p := 0; p < b.NumPorts(); p++ {
			if b.PortBlocked(p) {
				blocked++
			}
		}
	}
	if blocked != 1 {
		t.Errorf("DEC ring blocked ports = %d, want 1", blocked)
	}
	// Protocols do not cross-talk: no bridge saw an IEEE frame handler
	// trap, and dec.tree is registered while ieee.tree is not.
	for _, b := range r.bridges {
		if _, ok := b.Funcs.Lookup("dec.tree"); !ok {
			t.Error("dec.tree missing")
		}
		if _, ok := b.Funcs.Lookup("ieee.tree"); ok {
			t.Error("ieee.tree present without the IEEE switchlet")
		}
	}
}

func TestDumbBridgeCannotTolerateLoops(t *testing.T) {
	// Paper §5.3: the dumb switchlet "cannot tolerate a network topology
	// with any loops". Demonstrate the collapse is bounded only by queues.
	r := buildRing(t, 3)
	r.loadAll(t, loadDumb)
	r.sim.MaxEvents = 200000
	r.sim.Schedule(0, func() { r.hosts[0].send(t, ethernet.Broadcast, 64) })
	r.sim.Run(netsim.Time(3 * netsim.Second))
	var sent uint64
	for _, b := range r.bridges {
		sent += b.Stats.FramesSent
	}
	if sent < 500 {
		t.Errorf("dumb ring should melt down, only %d frames", sent)
	}
}

// readmeCountSrc is the switchlet shown in README.md ("Writing a
// switchlet"); this test keeps the documentation honest.
const readmeCountSrc = `
(* count.swl: count frames per input port, report via Func *)
let counts = Hashtbl.create 8

let handle pkt inport =
  let k = string_of_int inport in
  let n = if Hashtbl.mem counts k then Hashtbl.find counts k else 0 in
  Hashtbl.add counts k (n + 1);
  (* fall through to flooding *)
  let ports = Unixnet.num_ports () in
  let rec go i =
    if i < ports then begin
      (if i <> inport then Unixnet.send_pkt_out i pkt);
      go (i + 1)
    end
  in
  go 0

let report port = string_of_int
  (if Hashtbl.mem counts port then Hashtbl.find counts port else 0)

let _ = Func.register "count.report" report
let _ = Bridge.set_handler handle
let _ = Log.log "counting repeater installed"
`

func TestReadmeExampleCompilesAndRuns(t *testing.T) {
	sim, b, h1, h2 := twoLANs(t)
	if err := compileAndLoad(b, "Count", readmeCountSrc); err != nil {
		t.Fatalf("README switchlet does not compile: %v", err)
	}
	sim.Schedule(0, func() { h1.send(t, h2.nic.MAC, 64) })
	sim.Schedule(1, func() { h1.send(t, h2.nic.MAC, 64) })
	sim.Run(netsim.Time(netsim.Second))
	if len(h2.rx) != 2 {
		t.Fatalf("README switchlet did not forward: %d", len(h2.rx))
	}
	fn, ok := b.Funcs.Lookup("count.report")
	if !ok {
		t.Fatal("count.report not registered")
	}
	v, err := b.Machine.Invoke(fn, "0")
	if err != nil || v != "2" {
		t.Errorf("count.report(0) = %v, %v; want 2", v, err)
	}
}
