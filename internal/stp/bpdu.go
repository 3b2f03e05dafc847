package stp

import (
	"encoding/binary"
	"errors"

	"github.com/switchware/activebridge/internal/ethernet"
)

// IEEE 802.1D configuration BPDU layout (35 bytes):
//
//	offset size field
//	0      2    protocol identifier (0)
//	2      1    version (0)
//	3      1    BPDU type (0 = configuration)
//	4      1    flags
//	5      8    root identifier
//	13     4    root path cost
//	17     8    bridge identifier
//	25     2    port identifier
//	27     2    message age (1/256 s)
//	29     2    max age
//	31     2    hello time
//	33     2    forward delay
//
// The DEC-style format used as the paper's "old" protocol is deliberately
// incompatible: different length, different field order, a magic byte, and
// it travels to a different multicast address with a different EtherType.
const (
	IEEEBPDULen = 35
	DECBPDULen  = 26
	decMagic    = 0xe1
)

// Codec errors.
var (
	ErrBadBPDU = errors.New("stp: malformed BPDU")
	ErrNotBPDU = errors.New("stp: not a configuration BPDU")
)

// EncodeIEEE renders a configuration vector as an 802.1D config BPDU with
// the machine's timer values.
func EncodeIEEE(v Vector, c Config) []byte {
	b := make([]byte, IEEEBPDULen)
	// protocol id, version, type already zero.
	binary.BigEndian.PutUint64(b[5:13], uint64(v.RootID))
	binary.BigEndian.PutUint32(b[13:17], v.Cost)
	binary.BigEndian.PutUint64(b[17:25], uint64(v.Bridge))
	binary.BigEndian.PutUint16(b[25:27], v.Port)
	put256ths := func(off int, d int64) {
		binary.BigEndian.PutUint16(b[off:off+2], uint16(d*256/1e9))
	}
	put256ths(29, int64(c.MaxAge))
	put256ths(31, int64(c.HelloTime))
	put256ths(33, int64(c.ForwardDelay))
	return b
}

// RootClaimFrame is the frame that starts the §5.4 transition: an 802.1D
// configuration BPDU, marshalled to the All Bridges address, from a
// station claiming to be root at the default priority and timers.
func RootClaimFrame(station ethernet.MAC) []byte {
	id := MakeBridgeID(0x8000, station)
	fr := ethernet.Frame{Dst: ethernet.AllBridges, Src: station, Type: ethernet.TypeBPDU,
		Payload: EncodeIEEE(Vector{RootID: id, Bridge: id}, Config{}.DefaultTimers())}
	raw, err := fr.Marshal()
	if err != nil {
		panic(err) // a 35-byte payload cannot be a long frame
	}
	return raw
}

// DecodeIEEE parses an 802.1D configuration BPDU.
func DecodeIEEE(b []byte) (Vector, error) {
	if len(b) < IEEEBPDULen {
		return Vector{}, ErrBadBPDU
	}
	if binary.BigEndian.Uint16(b[0:2]) != 0 || b[2] != 0 {
		return Vector{}, ErrBadBPDU
	}
	if b[3] != 0 {
		return Vector{}, ErrNotBPDU // e.g. a TCN
	}
	return Vector{
		RootID: BridgeID(binary.BigEndian.Uint64(b[5:13])),
		Cost:   binary.BigEndian.Uint32(b[13:17]),
		Bridge: BridgeID(binary.BigEndian.Uint64(b[17:25])),
		Port:   binary.BigEndian.Uint16(b[25:27]),
	}, nil
}

// EncodeDEC renders the vector in the DEC-style format.
func EncodeDEC(v Vector) []byte {
	b := make([]byte, DECBPDULen)
	b[0] = decMagic
	b[1] = 1 // version
	// Deliberately different field order: bridge, port, root, cost.
	binary.BigEndian.PutUint64(b[2:10], uint64(v.Bridge))
	binary.BigEndian.PutUint16(b[10:12], v.Port)
	binary.BigEndian.PutUint64(b[12:20], uint64(v.RootID))
	binary.BigEndian.PutUint32(b[20:24], v.Cost)
	// b[24:26] reserved.
	return b
}

// DecodeDEC parses a DEC-style configuration frame.
func DecodeDEC(b []byte) (Vector, error) {
	if len(b) < DECBPDULen || b[0] != decMagic || b[1] != 1 {
		return Vector{}, ErrBadBPDU
	}
	return Vector{
		Bridge: BridgeID(binary.BigEndian.Uint64(b[2:10])),
		Port:   binary.BigEndian.Uint16(b[10:12]),
		RootID: BridgeID(binary.BigEndian.Uint64(b[12:20])),
		Cost:   binary.BigEndian.Uint32(b[20:24]),
	}, nil
}
