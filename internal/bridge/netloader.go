package bridge

import (
	"encoding/binary"

	"github.com/switchware/activebridge/internal/arp"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/tftp"
	"github.com/switchware/activebridge/internal/udp"
)

// netLoader is the paper's network switchlet loader (§5.2): a four-layer
// stack — Ethernet demux, minimal IPv4 (no fragmentation), minimal UDP,
// and a TFTP server that "only services write requests in binary format.
// Any such file is taken to be a Caml byte code file and, upon successful
// receipt, an attempt is made to dynamically load and evaluate the file."
//
// In the paper this stack is itself loaded as switchlets; here it is a
// native switchlet — a deliberate substitution: it is installed and
// removed at runtime through the same registration discipline, but written
// in Go because its cost is not the experiment's subject.
type netLoader struct {
	b    *Bridge
	addr ipv4.Addr
	srv  *tftp.Server
	// peers remembers the source MAC and arrival port of each client so
	// replies can be addressed without ARP.
	peers map[tftp.Endpoint]peerInfo

	// Loaded counts switchlets installed via the network path.
	Loaded uint64
}

type peerInfo struct {
	mac  ethernet.MAC
	port int
}

// EnableNetLoader gives the bridge an IP address and installs the network
// switchlet loader. Frames addressed to the bridge's MAC carrying UDP/IP
// to the TFTP port are consumed by the loader.
func (b *Bridge) EnableNetLoader(addr ipv4.Addr) {
	b.netLoader = &netLoader{
		b:     b,
		addr:  addr,
		peers: map[tftp.Endpoint]peerInfo{},
	}
	b.netLoader.srv = tftp.NewServer(func(name string, data []byte) error {
		// The arriving file must be a switchlet object; load it now.
		// LoadObjectBytes runs the full static verifier (vm.VerifyObject)
		// before any linking, so a hostile upload is rejected with a typed
		// *vm.VerifyError here — the TFTP server then errors the transfer
		// instead of sending the final ack, and no VM state exists for the
		// rejected module.
		if err := b.LoadObjectBytes(data); err != nil {
			return err
		}
		b.netLoader.Loaded++
		b.Log("netloader: loaded switchlet " + name)
		return nil
	})
}

// NetLoaderAddr returns the loader's IP address (zero if disabled).
func (b *Bridge) NetLoaderAddr() ipv4.Addr {
	if b.netLoader == nil {
		return ipv4.Addr{}
	}
	return b.netLoader.addr
}

// NetLoads reports how many switchlets arrived over the network.
func (b *Bridge) NetLoads() uint64 {
	if b.netLoader == nil {
		return 0
	}
	return b.netLoader.Loaded
}

// maybeHandle consumes a frame if it belongs to the loading stack.
// Layer 1: Ethernet — only frames addressed to this bridge's MAC with the
// IPv4 EtherType are considered. ARP requests for the loader's address are
// answered but NOT consumed: the bridge is transparent, so the broadcast
// still floods through the data path.
func (nl *netLoader) maybeHandle(inPort int, raw []byte) bool {
	ty, err := ethernet.PeekType(raw)
	if err != nil {
		return false
	}
	if ty == ethernet.TypeARP {
		nl.maybeAnswerARP(inPort, raw)
		return false
	}
	dst, err := ethernet.PeekDst(raw)
	if err != nil || dst != nl.b.mac {
		return false
	}
	if ty != ethernet.TypeIPv4 {
		return false
	}
	var fr ethernet.Frame
	if fr.Unmarshal(raw) != nil {
		return false
	}
	// Layer 2: minimal IP. No fragmentation support, exactly like the
	// paper's minimal IP: fragmented datagrams are dropped.
	var ip ipv4.Packet
	if ip.Unmarshal(fr.Payload) != nil {
		return true // addressed to us but malformed: consume silently
	}
	if ip.Dst != nl.addr || ip.Protocol != ipv4.ProtoUDP || ip.MF || ip.FragOff != 0 {
		return true
	}
	// Layer 3: minimal UDP.
	var dg udp.Datagram
	if dg.Unmarshal(ip.Src, ip.Dst, fr.Payload[ipv4.HeaderLen:]) != nil {
		return true
	}
	// Layer 4: TFTP (write-only, binary).
	from := tftp.Endpoint{Addr: ip.Src, Port: dg.SrcPort}
	nl.peers[from] = peerInfo{mac: fr.Src, port: inPort}

	// Each reply is its own CPU job; the first also carries the frame's
	// receive crossing and the loader's processing.
	replies := nl.srv.Handle(from, dg.DstPort, dg.Payload)
	recv, exec := nl.b.cost.KernelCrossing(len(raw)), nl.b.cost.NativePerFrame
	for _, rep := range replies {
		frame, err := nl.encodeReply(rep)
		if err != nil {
			continue
		}
		nl.reply(nl.peers[rep.To].port, frame, recv, exec)
		recv, exec = 0, 0
	}
	if len(replies) == 0 {
		nl.b.cpu.Hold(recv + exec)
	}
	return true
}

// reply sends one loader frame as a ctl send through the node's send rule
// and charges it as its own job, so it leaves (or dies with a crash) like
// any switchlet's frame.
func (nl *netLoader) reply(port int, frame []byte, recv, exec netsim.Duration) {
	outer := nl.b.beginSends()
	_ = nl.b.SendBytes(port, frame, true)
	nl.b.charge(recv, exec, nl.b.endSends(outer), false)
}

// maybeAnswerARP replies to who-has queries for the loader's IP address.
func (nl *netLoader) maybeAnswerARP(inPort int, raw []byte) {
	var fr ethernet.Frame
	if fr.Unmarshal(raw) != nil {
		return
	}
	var req arp.Packet
	if req.Unmarshal(fr.Payload) != nil || req.Op != arp.OpRequest || req.TargetIP != nl.addr {
		return
	}
	rep := arp.Reply(&req, nl.b.mac)
	nl.reply(inPort, bareFrame(req.SenderHA, nl.b.mac, ethernet.TypeARP, rep.Marshal()),
		nl.b.cost.KernelCrossing(len(raw)), nl.b.cost.NativePerFrame)
}

func (nl *netLoader) encodeReply(rep tftp.Reply) ([]byte, error) {
	dgOut := udp.Datagram{SrcPort: rep.FromPort, DstPort: rep.To.Port, Payload: rep.Payload}
	udpBytes, err := dgOut.Marshal(nl.addr, rep.To.Addr)
	if err != nil {
		return nil, err
	}
	ipOut := ipv4.Packet{
		TTL: 64, Protocol: ipv4.ProtoUDP,
		Src: nl.addr, Dst: rep.To.Addr, Payload: udpBytes,
	}
	ipBytes, err := ipOut.Marshal()
	if err != nil {
		return nil, err
	}
	return bareFrame(nl.peers[rep.To].mac, nl.b.mac, ethernet.TypeIPv4, ipBytes), nil
}

// bareFrame lays out a header+payload with no padding or FCS: what a
// reply hands SendBytes, which seals it like any switchlet's frame.
func bareFrame(dst, src ethernet.MAC, typ uint16, payload []byte) []byte {
	b := make([]byte, ethernet.HeaderLen+len(payload))
	copy(b[0:6], dst[:])
	copy(b[6:12], src[:])
	binary.BigEndian.PutUint16(b[12:14], typ)
	copy(b[ethernet.HeaderLen:], payload)
	return b
}
