package stp

import (
	"encoding/binary"

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
// The DEC-style format of the paper's "old" protocol is encoded only in
// swl, by the Decspan switchlet (internal/switchlets).
const IEEEBPDULen = 35

// EncodeIEEE renders a configuration vector as an 802.1D config BPDU with
// c's timer values.
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
