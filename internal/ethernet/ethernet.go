// Package ethernet implements Ethernet II framing as used by the Active
// Bridge: frame encoding/decoding, MAC address handling, the broadcast and
// bridge-group multicast addresses, and the frame check sequence.
//
// The paper's bridge operates on raw Ethernet frames delivered through Linux
// packet sockets; this package is the equivalent wire format layer for the
// simulated LANs in internal/netsim.
package ethernet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// MAC is a 48-bit IEEE 802 MAC address.
type MAC [6]byte

// Well-known addresses.
var (
	// Broadcast is the all-ones broadcast address.
	Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	// AllBridges is the IEEE 802.1D "All LAN Bridges" multicast address to
	// which 802.1D configuration BPDUs are sent (paper: "the All Bridges
	// multicast address").
	AllBridges = MAC{0x01, 0x80, 0xc2, 0x00, 0x00, 0x00}
	// DECBridges is the DEC LANbridge management multicast address used by
	// the paper's "old" DEC-style spanning tree protocol.
	DECBridges = MAC{0x09, 0x00, 0x2b, 0x01, 0x00, 0x01}
)

// EtherType values used in this repository.
const (
	TypeIPv4 uint16 = 0x0800
	TypeARP  uint16 = 0x0806
	// TypeLLC is not a real EtherType: values <= 1500 are 802.3 lengths.
	// BPDUs ride on LLC in real networks; the simulator carries them with a
	// dedicated type for clarity, as the paper's prototype also diverged
	// from strict 802.1D framing ("one of our 802.1D incompatibilities").
	TypeBPDU uint16 = 0x88f5
	// TypeDEC marks the DEC-style spanning tree frames (incompatible format).
	TypeDEC uint16 = 0x6002
	// TypeTest is used by test traffic generators.
	TypeTest uint16 = 0x88b5
)

// Frame layout constants.
const (
	HeaderLen   = 14   // dst(6) + src(6) + ethertype(2)
	FCSLen      = 4    // CRC-32 frame check sequence
	MinPayload  = 46   // minimum Ethernet payload
	MaxPayload  = 1500 // maximum Ethernet payload (no jumbo frames)
	MinFrameLen = HeaderLen + MinPayload + FCSLen
	MaxFrameLen = HeaderLen + MaxPayload + FCSLen
	// OverheadBits is the preamble+SFD+IFG cost per frame on the wire, in
	// bit times (7+1 preamble bytes, 12 byte interframe gap).
	OverheadBits = (8 + 12) * 8
)

// Errors returned by the codec.
var (
	ErrShortFrame   = errors.New("ethernet: frame shorter than minimum")
	ErrLongFrame    = errors.New("ethernet: payload exceeds 1500 bytes")
	ErrBadFCS       = errors.New("ethernet: frame check sequence mismatch")
	ErrTruncated    = errors.New("ethernet: truncated header")
	ErrBadMACFormat = errors.New("ethernet: malformed MAC address string")
)

// IsBroadcast reports whether a is the broadcast address.
func (a MAC) IsBroadcast() bool { return a == Broadcast }

// IsMulticast reports whether a is a group (multicast or broadcast) address:
// the I/G bit (LSB of the first octet) is set.
func (a MAC) IsMulticast() bool { return a[0]&0x01 != 0 }

// IsUnicast reports whether a is an individual address.
func (a MAC) IsUnicast() bool { return !a.IsMulticast() }

// String renders the address in colon-separated hex.
func (a MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// ParseMAC parses a colon-separated hex MAC address.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	if len(s) != 17 {
		return m, ErrBadMACFormat
	}
	for i := 0; i < 6; i++ {
		hi, ok1 := hexNibble(s[i*3])
		lo, ok2 := hexNibble(s[i*3+1])
		if !ok1 || !ok2 {
			return m, ErrBadMACFormat
		}
		m[i] = hi<<4 | lo
		if i < 5 && s[i*3+2] != ':' {
			return m, ErrBadMACFormat
		}
	}
	return m, nil
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Uint64 returns the address as a 48-bit integer, useful as a map key and
// for 802.1D bridge-ID comparison.
func (a MAC) Uint64() uint64 {
	return uint64(a[0])<<40 | uint64(a[1])<<32 | uint64(a[2])<<24 |
		uint64(a[3])<<16 | uint64(a[4])<<8 | uint64(a[5])
}

// MACFromUint64 is the inverse of Uint64; the top 16 bits of v are ignored.
func MACFromUint64(v uint64) MAC {
	return MAC{byte(v >> 40), byte(v >> 32), byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// Frame is a decoded Ethernet II frame. Payload excludes the FCS.
type Frame struct {
	Dst     MAC
	Src     MAC
	Type    uint16
	Payload []byte
}

// WireLen returns the on-the-wire length in bytes of the encoded frame,
// including padding to the Ethernet minimum and the FCS.
func (f *Frame) WireLen() int {
	p := len(f.Payload)
	if p < MinPayload {
		p = MinPayload
	}
	return HeaderLen + p + FCSLen
}

// WireBits returns the number of bit times the frame occupies on a shared
// medium, including preamble and interframe gap; used by the simulator's
// wire-time model.
func (f *Frame) WireBits() int { return f.WireLen()*8 + OverheadBits }

// Marshal encodes the frame, padding the payload to the Ethernet minimum and
// appending the CRC-32 FCS. It returns ErrLongFrame if the payload exceeds
// 1500 bytes.
func (f *Frame) Marshal() ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, ErrLongFrame
	}
	p := len(f.Payload)
	if p < MinPayload {
		p = MinPayload
	}
	b := make([]byte, HeaderLen+p+FCSLen)
	copy(b[0:6], f.Dst[:])
	copy(b[6:12], f.Src[:])
	binary.BigEndian.PutUint16(b[12:14], f.Type)
	copy(b[14:], f.Payload)
	fcs := crc32.ChecksumIEEE(b[:HeaderLen+p])
	binary.BigEndian.PutUint32(b[HeaderLen+p:], fcs)
	return b, nil
}

// Unmarshal decodes b into f, verifying the FCS. The payload aliases b.
// Note the payload retains the minimum-frame padding; higher layers carry
// their own lengths (as the paper's switchlets do: "The user must unmarshall
// the data from the string").
func (f *Frame) Unmarshal(b []byte) error {
	if len(b) < HeaderLen {
		return ErrTruncated
	}
	if len(b) < MinFrameLen {
		return ErrShortFrame
	}
	body := b[:len(b)-FCSLen]
	want := binary.BigEndian.Uint32(b[len(b)-FCSLen:])
	if crc32.ChecksumIEEE(body) != want {
		return ErrBadFCS
	}
	copy(f.Dst[:], b[0:6])
	copy(f.Src[:], b[6:12])
	f.Type = binary.BigEndian.Uint16(b[12:14])
	f.Payload = body[HeaderLen:]
	return nil
}

// FCSMemo remembers a few recently FCS-validated encoded frames so repeat
// deliveries of the same buffer can skip the CRC-32 pass. Buffers are
// matched by identity (base pointer and length), not content: the memo is
// sound only for buffers that are immutable once handed out, which the
// simulator guarantees — a transmitted frame's bytes are shared among all
// receivers and never mutated, and fault-corrupted frames are dropped at
// the medium or adapter boundary rather than delivered with altered bytes
// (see internal/netsim). The memo keeps a reference to each recorded
// buffer, so a freed-and-reallocated buffer can never alias a recorded
// address while the record is live.
type FCSMemo struct {
	bufs [4][]byte
	next int
	// Hits and Misses count UnmarshalMemo outcomes for observability.
	Hits, Misses uint64
}

func (mo *FCSMemo) hit(b []byte) bool {
	for _, c := range mo.bufs {
		if len(c) == len(b) && &c[0] == &b[0] {
			return true
		}
	}
	return false
}

// UnmarshalMemo is Unmarshal with FCS memoization: if b is one of the
// buffers mo recently validated, the CRC pass is skipped. See FCSMemo for
// the immutability contract that makes this sound.
func (f *Frame) UnmarshalMemo(b []byte, mo *FCSMemo) error {
	if len(b) < HeaderLen {
		return ErrTruncated
	}
	if len(b) < MinFrameLen {
		return ErrShortFrame
	}
	if mo.hit(b) {
		mo.Hits++
	} else {
		body := b[:len(b)-FCSLen]
		want := binary.BigEndian.Uint32(b[len(b)-FCSLen:])
		if crc32.ChecksumIEEE(body) != want {
			return ErrBadFCS
		}
		mo.Misses++
		mo.bufs[mo.next] = b
		mo.next = (mo.next + 1) % len(mo.bufs)
	}
	copy(f.Dst[:], b[0:6])
	copy(f.Src[:], b[6:12])
	f.Type = binary.BigEndian.Uint16(b[12:14])
	f.Payload = b[HeaderLen : len(b)-FCSLen]
	return nil
}

// Slab block sizing: blocks grow geometrically from the first request so
// a short-lived endpoint (a testbed host sending a handful of frames)
// pays for kilobytes, not the steady-state maximum.
const (
	slabMinBlock = 2 << 10
	slabMaxBlock = 64 << 10
)

// Slab carves frame buffers out of large pre-zeroed blocks, cutting both
// allocator traffic and GC scan work on frame-heavy paths (many small
// pointer-free buffers collapse into a few big ones). Carved buffers are
// capped with full slice expressions and the slab never reuses their
// bytes, so they are exactly as independent as individual allocations.
//
// A carved frame pins its whole block for as long as anyone holds it.
// Hosts drop what they send, so their blocks grow to 64 KB. A bridge's
// own frames are held by the receivers: a spanning-tree switchlet keeps
// a zero-copy view of the last BPDU it heard, and a bridge keeps the
// last frame it dispatched. Each retained BPDU could pin up to 64 KB,
// so bridges bound their blocks at 2 KB (MaxBlock).
type Slab struct {
	// MaxBlock bounds block growth; zero means 64 KB. A frame larger
	// than the bound still gets a block of its own size.
	MaxBlock int

	buf  []byte
	next int
}

func (s *Slab) take(n int) []byte {
	if n > len(s.buf) {
		limit := s.MaxBlock
		if limit <= 0 {
			limit = slabMaxBlock
		}
		sz := min(max(s.next, slabMinBlock), limit)
		sz = max(sz, n) // a frame larger than the bound gets its own block
		s.next = min(sz*4, limit)
		s.buf = make([]byte, sz)
	}
	b := s.buf[:n:n]
	s.buf = s.buf[n:]
	return b
}

// MarshalSlab is Marshal with the output buffer carved from s instead of
// allocated individually. The slab's blocks are zero-initialized and never
// recycled, so minimum-frame padding stays zero exactly as in Marshal.
func (f *Frame) MarshalSlab(s *Slab) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, ErrLongFrame
	}
	p := len(f.Payload)
	if p < MinPayload {
		p = MinPayload
	}
	b := s.take(HeaderLen + p + FCSLen)
	copy(b[0:6], f.Dst[:])
	copy(b[6:12], f.Src[:])
	binary.BigEndian.PutUint16(b[12:14], f.Type)
	copy(b[14:], f.Payload)
	fcs := crc32.ChecksumIEEE(b[:HeaderLen+p])
	binary.BigEndian.PutUint32(b[HeaderLen+p:], fcs)
	return b, nil
}

// PeekDst returns the destination address of an encoded frame without a full
// decode; used by fast paths that only demultiplex.
//
//ab:allocfree
func PeekDst(b []byte) (MAC, error) {
	var m MAC
	if len(b) < 6 {
		return m, ErrTruncated
	}
	copy(m[:], b[0:6])
	return m, nil
}

// PeekSrc returns the source address of an encoded frame.
//
//ab:allocfree
func PeekSrc(b []byte) (MAC, error) {
	var m MAC
	if len(b) < 12 {
		return m, ErrTruncated
	}
	copy(m[:], b[6:12])
	return m, nil
}

// PeekType returns the EtherType of an encoded frame.
//
//ab:allocfree
func PeekType(b []byte) (uint16, error) {
	if len(b) < HeaderLen {
		return 0, ErrTruncated
	}
	return binary.BigEndian.Uint16(b[12:14]), nil
}
