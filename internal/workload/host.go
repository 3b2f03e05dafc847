// Package workload implements the measurement endpoints of the paper's
// evaluation: Linux hosts running ping (ICMP echo, Figure 9) and ttcp
// (streaming throughput, Figure 10), plus the TFTP switchlet-upload client
// used by the network loading experiment (§5.2).
//
// Hosts model the paper's "Intel Pentiums running ... Linux": a full
// protocol stack charged per packet through the host CPU, IPv4
// fragmentation/reassembly for large ICMP payloads, and a static neighbor
// directory in front of ARP (the measurement LANs are fully known).
package workload

import (
	"bytes"
	"fmt"

	"github.com/switchware/activebridge/internal/arp"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/icmp"
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/udp"
)

// MTU is the Ethernet payload limit used by host IP stacks.
const MTU = 1500

// Host is a simulated measurement endpoint.
type Host struct {
	Name string
	MAC  ethernet.MAC
	IP   ipv4.Addr
	NIC  *netsim.NIC

	sim   *netsim.Sim
	cpu   *netsim.CPU
	cost  netsim.CostModel
	reasm *ipv4.Reassembler

	// deliverFn/nicSendFn are the per-frame CPU completion callbacks,
	// allocated once instead of per frame.
	deliverFn func([]byte)
	nicSendFn func([]byte)

	// fcsMemo skips repeat CRC validation of re-delivered identical
	// buffers; slab batches outgoing frame allocations. Both are pure
	// fast-path devices (see internal/ethernet for the soundness
	// contracts).
	fcsMemo ethernet.FCSMemo
	slab    ethernet.Slab
	// lastTest caches the most recent marshalled test frame: ttcp streams
	// re-send byte-identical segments, so an exact (dst, length, content)
	// match reuses the encoded buffer — no marshal, no CRC.
	lastTest     []byte
	lastTestDst  ethernet.MAC
	lastTestPlen int

	// neighbors holds this host's own entries (AddNeighbor and ARP);
	// directory is the network-wide read-only table behind them.
	neighbors map[ipv4.Addr]ethernet.MAC
	directory map[ipv4.Addr]ethernet.MAC
	// arpPending queues IP sends awaiting resolution, keyed by next hop.
	arpPending map[ipv4.Addr][]pendingIP
	ipID       uint16

	// onEchoReply receives completed (possibly reassembled) echo replies.
	onEchoReply func(e *icmp.Echo, at netsim.Time)
	// onTest receives raw test-stream frames (the ttcp data channel).
	onTest func(payload []byte, at netsim.Time)
	// udpPorts dispatches received datagrams by destination port.
	udpPorts map[uint16]func(src ipv4.Addr, srcPort uint16, payload []byte)

	// Stats.
	FramesOut, FramesIn uint64
	EchoRequests        uint64
}

// NewHost creates a host bound to the simulation.
func NewHost(sim *netsim.Sim, name string, mac ethernet.MAC, ip ipv4.Addr, cost netsim.CostModel) *Host {
	h := &Host{
		Name: name, MAC: mac, IP: ip,
		sim: sim, cpu: netsim.NewCPU(sim), cost: cost,
		reasm:      ipv4.NewReassembler(),
		neighbors:  map[ipv4.Addr]ethernet.MAC{},
		arpPending: map[ipv4.Addr][]pendingIP{},
		udpPorts:   map[uint16]func(ipv4.Addr, uint16, []byte){},
	}
	h.NIC = netsim.NewNIC(sim, name+".eth0", mac)
	h.NIC.SetRecv(func(_ *netsim.NIC, raw []byte) { h.receive(raw) })
	h.deliverFn = h.deliver
	h.nicSendFn = func(raw []byte) { h.NIC.Send(raw) }
	return h
}

// AddNeighbor installs a static IP -> MAC mapping of this host's own; it
// wins over the directory.
func (h *Host) AddNeighbor(ip ipv4.Addr, mac ethernet.MAC) { h.neighbors[ip] = mac }

// SetDirectory installs a shared IP -> MAC directory consulted after the
// host's own entries, so an AddNeighbor or ARP-learned entry wins over it.
// The host never resolves its own IP from the directory. One map serves
// every host of a network, and on the sharded engine shard goroutines
// read it concurrently, so it is never written once installed: topo.Build
// fills it before handing it out and never after.
func (h *Host) SetDirectory(dir map[ipv4.Addr]ethernet.MAC) { h.directory = dir }

// CPU exposes the host CPU for utilization reporting.
func (h *Host) CPU() *netsim.CPU { return h.cpu }

// BindUDP registers a datagram receiver on a local port.
func (h *Host) BindUDP(port uint16, fn func(src ipv4.Addr, srcPort uint16, payload []byte)) {
	h.udpPorts[port] = fn
}

// receive is the host's input path: one stack charge per frame, then demux.
func (h *Host) receive(raw []byte) {
	h.FramesIn++
	h.cpu.ExecBytes(h.cost.HostStack(len(raw)), h.deliverFn, raw)
}

func (h *Host) deliver(raw []byte) {
	var fr ethernet.Frame
	if fr.UnmarshalMemo(raw, &h.fcsMemo) != nil {
		return
	}
	switch fr.Type {
	case ethernet.TypeTest:
		if h.onTest != nil {
			// Test payload carries its own length prefix (frames pad).
			h.onTest(fr.Payload, h.sim.Now())
		}
	case ethernet.TypeARP:
		h.deliverARP(fr.Payload)
	case ethernet.TypeIPv4:
		var ip ipv4.Packet
		if ip.Unmarshal(fr.Payload) != nil {
			return
		}
		if ip.Dst != h.IP {
			return
		}
		full := h.reasm.Add(&ip)
		if full == nil {
			return
		}
		h.deliverIP(full)
	}
}

func (h *Host) deliverIP(p *ipv4.Packet) {
	switch p.Protocol {
	case ipv4.ProtoICMP:
		var e icmp.Echo
		if e.Unmarshal(p.Payload) != nil {
			return
		}
		if e.Reply {
			if h.onEchoReply != nil {
				h.onEchoReply(&e, h.sim.Now())
			}
			return
		}
		// Echo request: reply in kind (same data), charged as a fresh send.
		h.EchoRequests++
		reply := icmp.Echo{Reply: true, ID: e.ID, Seq: e.Seq, Data: e.Data}
		h.SendIP(p.Src, ipv4.ProtoICMP, reply.Marshal())
	case ipv4.ProtoUDP:
		var dg udp.Datagram
		if dg.Unmarshal(p.Src, p.Dst, p.Payload) != nil {
			return
		}
		if fn, ok := h.udpPorts[dg.DstPort]; ok {
			fn(p.Src, dg.SrcPort, dg.Payload)
		}
	}
}

// pendingIP is a queued transmission awaiting ARP resolution.
type pendingIP struct {
	proto   byte
	payload []byte
}

// deliverARP handles received ARP traffic: answer requests for our
// address, learn from replies, and flush any sends that were waiting.
func (h *Host) deliverARP(payload []byte) {
	var p arp.Packet
	if p.Unmarshal(payload) != nil {
		return
	}
	switch p.Op {
	case arp.OpRequest:
		if p.TargetIP != h.IP {
			return
		}
		// Opportunistically learn the asker, then answer.
		h.neighbors[p.SenderIP] = p.SenderHA
		reply := arp.Reply(&p, h.MAC)
		fr := ethernet.Frame{Dst: p.SenderHA, Src: h.MAC, Type: ethernet.TypeARP, Payload: reply.Marshal()}
		raw, err := fr.Marshal()
		if err == nil {
			h.sendRaw(raw)
		}
	case arp.OpReply:
		if p.TargetIP != h.IP && p.TargetHA != h.MAC {
			return
		}
		h.neighbors[p.SenderIP] = p.SenderHA
		queued := h.arpPending[p.SenderIP]
		delete(h.arpPending, p.SenderIP)
		for _, q := range queued {
			_ = h.SendIP(p.SenderIP, q.proto, q.payload)
		}
	}
}

// sendARPRequest broadcasts a who-has query for dst.
func (h *Host) sendARPRequest(dst ipv4.Addr) {
	req := arp.Request(h.MAC, h.IP, dst)
	fr := ethernet.Frame{Dst: ethernet.Broadcast, Src: h.MAC, Type: ethernet.TypeARP, Payload: req.Marshal()}
	raw, err := fr.Marshal()
	if err == nil {
		h.sendRaw(raw)
	}
}

// SendIP transmits an IP payload to dst, fragmenting at the MTU; each
// resulting frame is charged through the host CPU. A destination found
// in neither the host's own entries nor the directory triggers ARP; the
// packet is queued and transmitted when the reply arrives.
func (h *Host) SendIP(dst ipv4.Addr, proto byte, payload []byte) error {
	mac, ok := h.neighbors[dst]
	if !ok && dst != h.IP {
		mac, ok = h.directory[dst]
	}
	if !ok {
		pend := h.arpPending[dst]
		if len(pend) >= 64 {
			return fmt.Errorf("%s: ARP queue overflow for %v", h.Name, dst)
		}
		h.arpPending[dst] = append(pend, pendingIP{proto: proto, payload: payload})
		if len(pend) == 0 {
			h.sendARPRequest(dst)
		}
		return nil
	}
	h.ipID++
	pkt := ipv4.Packet{ID: h.ipID, TTL: 64, Protocol: proto, Src: h.IP, Dst: dst, Payload: payload}
	frags, err := pkt.Fragment(MTU)
	if err != nil {
		return err
	}
	for _, fg := range frags {
		ipBytes, err := fg.Marshal()
		if err != nil {
			return err
		}
		fr := ethernet.Frame{Dst: mac, Src: h.MAC, Type: ethernet.TypeIPv4, Payload: ipBytes}
		raw, err := fr.MarshalSlab(&h.slab)
		if err != nil {
			return err
		}
		h.sendRaw(raw)
	}
	return nil
}

// SendUDP transmits a datagram.
func (h *Host) SendUDP(dst ipv4.Addr, srcPort, dstPort uint16, payload []byte) error {
	dg := udp.Datagram{SrcPort: srcPort, DstPort: dstPort, Payload: payload}
	b, err := dg.Marshal(h.IP, dst)
	if err != nil {
		return err
	}
	return h.SendIP(dst, ipv4.ProtoUDP, b)
}

// SendTest transmits one test-stream frame of the given payload size to a
// MAC destination (the ttcp data channel, which models TCP segments).
// The caller's payload slice is never retained.
func (h *Host) SendTest(dst ethernet.MAC, payload []byte) error {
	// Template fast path: a segment byte-identical to the previous one
	// (same dst, same exact payload length, same content) would marshal to
	// the very same bytes, so the cached encoding is re-sent as is. The
	// length must match exactly — two payload lengths below the Ethernet
	// minimum pad to the same wire length but carry different prefixes.
	if h.lastTest != nil && dst == h.lastTestDst && len(payload) == h.lastTestPlen &&
		bytes.Equal(payload, h.lastTest[ethernet.HeaderLen:ethernet.HeaderLen+len(payload)]) {
		h.sendRaw(h.lastTest)
		return nil
	}
	fr := ethernet.Frame{Dst: dst, Src: h.MAC, Type: ethernet.TypeTest, Payload: payload}
	raw, err := fr.MarshalSlab(&h.slab)
	if err != nil {
		return err
	}
	h.lastTest, h.lastTestDst, h.lastTestPlen = raw, dst, len(payload)
	h.sendRaw(raw)
	return nil
}

func (h *Host) sendRaw(raw []byte) {
	h.FramesOut++
	h.cpu.ExecBytes(h.cost.HostStack(len(raw)), h.nicSendFn, raw)
}
