package switchlets

import (
	"fmt"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/stp"
)

// This file provides native-code implementations of the bridge switchlets.
// The paper's §7.3 identifies bytecode interpretation as the dominant cost
// and proposes compiling switchlets to native code; these implementations
// are that design point, charged at CostModel.NativePerFrame instead of by
// interpreter accounting. The benchmarks use them as the ablation baseline
// (the ablation-native-vs-bytecode scenario).

// NativeLearning is the native self-learning bridge.
type NativeLearning struct {
	b        *bridge.Bridge
	table    map[ethernet.MAC]learnEntry
	AgeLimit netsim.Duration
}

type learnEntry struct {
	port int
	seen netsim.Time
}

// InstallNativeLearning installs a native learning bridge and returns it.
func InstallNativeLearning(b *bridge.Bridge) *NativeLearning {
	nl := &NativeLearning{
		b:        b,
		table:    map[ethernet.MAC]learnEntry{},
		AgeLimit: 300 * netsim.Second,
	}
	b.SetNativeHandler("native-learning", nl.handle)
	return nl
}

func (nl *NativeLearning) handle(data []byte, inPort int) {
	dst, err := ethernet.PeekDst(data)
	if err != nil {
		return
	}
	src, err := ethernet.PeekSrc(data)
	if err != nil {
		return
	}
	now := nl.b.Sim().Now()
	if !src.IsMulticast() {
		nl.table[src] = learnEntry{port: inPort, seen: now}
	}
	if !dst.IsMulticast() {
		if e, ok := nl.table[dst]; ok && now.Sub(e.seen) < nl.AgeLimit {
			if e.port != inPort {
				nl.b.SendBytes(e.port, data, false)
			}
			return
		}
	}
	for i := 0; i < nl.b.NumPorts(); i++ {
		if i != inPort {
			nl.b.SendBytes(i, data, false)
		}
	}
}

// Lookup returns the learned port for a MAC, or -1.
func (nl *NativeLearning) Lookup(m ethernet.MAC) int {
	if e, ok := nl.table[m]; ok {
		return e.port
	}
	return -1
}

// Size returns the number of learned stations.
func (nl *NativeLearning) Size() int { return len(nl.table) }

// NativeSTP runs the internal/stp machine as a native switchlet, for
// either protocol framing.
type NativeSTP struct {
	b       *bridge.Bridge
	m       *stp.Machine
	dec     bool
	addr    ethernet.MAC
	etype   uint16
	timerID string
	enabled bool
}

// InstallNativeSTP installs a native spanning tree switchlet. dec selects
// the DEC-style framing.
func InstallNativeSTP(b *bridge.Bridge, dec bool) (*NativeSTP, error) {
	cfg := stp.Config{
		BridgeID: stp.MakeBridgeID(0x8000, b.MAC()),
		NumPorts: b.NumPorts(),
	}
	ns := &NativeSTP{
		b:   b,
		m:   stp.New(cfg, b.Sim().Now),
		dec: dec,
	}
	if dec {
		ns.addr, ns.etype, ns.timerID = ethernet.DECBridges, ethernet.TypeDEC, "native-dec-hello"
	} else {
		ns.addr, ns.etype, ns.timerID = ethernet.AllBridges, ethernet.TypeBPDU, "native-ieee-hello"
	}
	h := bridge.FrameHandler{Native: ns.onConfig, Name: "native-stp"}
	if err := b.SetDstHandler(ns.addr, h); err != nil {
		return nil, err
	}
	ns.enabled = true
	b.SetNativeTimer(ns.timerID, ns.m.Config().HelloTime, ns.tick)
	return ns, nil
}

// Machine exposes the underlying state machine (for experiment assertions).
func (ns *NativeSTP) Machine() *stp.Machine { return ns.m }

// Stop disables the protocol and releases its bindings.
func (ns *NativeSTP) Stop() {
	ns.enabled = false
	ns.b.CancelTimer(ns.timerID)
	ns.b.ClearDstHandler(ns.addr)
	for p := 0; p < ns.b.NumPorts(); p++ {
		ns.b.SetPortBlock(p, false)
	}
}

func (ns *NativeSTP) onConfig(data []byte, inPort int) {
	if !ns.enabled || len(data) < ethernet.HeaderLen {
		return
	}
	payload := data[ethernet.HeaderLen:]
	var v stp.Vector
	var err error
	if ns.dec {
		v, err = stp.DecodeDEC(payload)
	} else {
		v, err = stp.DecodeIEEE(payload)
	}
	if err != nil {
		return
	}
	ns.m.ReceiveConfig(inPort, v)
	ns.applyBlocks()
}

func (ns *NativeSTP) tick() {
	if !ns.enabled {
		return
	}
	emits := ns.m.Tick()
	ns.applyBlocks()
	for _, e := range emits {
		var payload []byte
		if ns.dec {
			payload = stp.EncodeDEC(e.V)
		} else {
			payload = stp.EncodeIEEE(e.V, ns.m.Config())
		}
		fr := ethernet.Frame{Dst: ns.addr, Src: ns.b.MAC(), Type: ns.etype, Payload: payload}
		raw, err := fr.Marshal()
		if err != nil {
			continue
		}
		ns.b.SendBytes(e.Port, raw, true)
	}
}

func (ns *NativeSTP) applyBlocks() {
	for p := 0; p < ns.b.NumPorts(); p++ {
		ns.b.SetPortBlock(p, !ns.m.ShouldForward(p))
	}
}

// TreeInfo renders the native machine's view in the same canonical format
// as the swl switchlets, so cross-implementation comparisons are possible.
func (ns *NativeSTP) TreeInfo() string {
	root := ns.m.RootID()
	out := fmt.Sprintf("root=%016x cost=%d rp=%d", uint64(root), ns.m.RootCost(), ns.m.RootPort())
	for p := 0; p < ns.b.NumPorts(); p++ {
		out += fmt.Sprintf(" p%d=%d", p, int(ns.m.PortRole(p)))
	}
	return out
}
