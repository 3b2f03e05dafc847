package ethernet

import (
	"bytes"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestMACPredicates(t *testing.T) {
	if !Broadcast.IsBroadcast() || !Broadcast.IsMulticast() || Broadcast.IsUnicast() {
		t.Errorf("broadcast predicates wrong")
	}
	if !AllBridges.IsMulticast() || AllBridges.IsBroadcast() {
		t.Errorf("AllBridges should be multicast, not broadcast")
	}
	if !DECBridges.IsMulticast() {
		t.Errorf("DECBridges should be multicast")
	}
	u := MAC{0x02, 0, 0, 0, 0, 1}
	if u.IsMulticast() || !u.IsUnicast() {
		t.Errorf("unicast predicates wrong for %v", u)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Errorf("String() = %q", got)
	}
}

func TestParseMAC(t *testing.T) {
	cases := []struct {
		in   string
		want MAC
		ok   bool
	}{
		{"de:ad:be:ef:00:01", MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}, true},
		{"DE:AD:BE:EF:00:01", MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}, true},
		{"01:80:c2:00:00:00", AllBridges, true},
		{"de:ad:be:ef:00", MAC{}, false},
		{"de:ad:be:ef:00:0g", MAC{}, false},
		{"de-ad-be-ef-00-01", MAC{}, false},
		{"", MAC{}, false},
	}
	for _, c := range cases {
		got, err := ParseMAC(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseMAC(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseMAC(%q) succeeded, want error", c.in)
		}
	}
}

func TestParseMACRoundTrip(t *testing.T) {
	f := func(m MAC) bool {
		got, err := ParseMAC(m.String())
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64RoundTrip(t *testing.T) {
	f := func(m MAC) bool { return MACFromUint64(m.Uint64()) == m }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64Ordering(t *testing.T) {
	lo := MAC{0, 0, 0, 0, 0, 1}
	hi := MAC{0, 0, 0, 0, 1, 0}
	if lo.Uint64() >= hi.Uint64() {
		t.Errorf("ordering: %v should be < %v", lo, hi)
	}
}

func TestFrameMarshalRoundTrip(t *testing.T) {
	fr := Frame{
		Dst:     MAC{2, 0, 0, 0, 0, 2},
		Src:     MAC{2, 0, 0, 0, 0, 1},
		Type:    TypeTest,
		Payload: bytes.Repeat([]byte{0xab}, 100),
	}
	b, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != fr.WireLen() {
		t.Errorf("len = %d, WireLen = %d", len(b), fr.WireLen())
	}
	var got Frame
	if err := got.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if got.Dst != fr.Dst || got.Src != fr.Src || got.Type != fr.Type {
		t.Errorf("header mismatch: %+v vs %+v", got, fr)
	}
	if !bytes.Equal(got.Payload[:100], fr.Payload) {
		t.Errorf("payload mismatch")
	}
}

func TestFramePadding(t *testing.T) {
	fr := Frame{Type: TypeTest, Payload: []byte{1, 2, 3}}
	b, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != MinFrameLen {
		t.Errorf("short payload frame len = %d, want %d", len(b), MinFrameLen)
	}
	var got Frame
	if err := got.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != MinPayload {
		t.Errorf("decoded payload len = %d, want padded %d", len(got.Payload), MinPayload)
	}
}

func TestFrameTooLong(t *testing.T) {
	fr := Frame{Payload: make([]byte, MaxPayload+1)}
	if _, err := fr.Marshal(); err != ErrLongFrame {
		t.Errorf("Marshal err = %v, want ErrLongFrame", err)
	}
}

func TestFrameMaxPayload(t *testing.T) {
	fr := Frame{Payload: make([]byte, MaxPayload)}
	b, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != MaxFrameLen {
		t.Errorf("len = %d, want %d", len(b), MaxFrameLen)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var f Frame
	if err := f.Unmarshal([]byte{1, 2, 3}); err != ErrTruncated {
		t.Errorf("tiny: %v, want ErrTruncated", err)
	}
	if err := f.Unmarshal(make([]byte, MinFrameLen-1)); err != ErrShortFrame {
		t.Errorf("short: %v, want ErrShortFrame", err)
	}
}

func TestFCSDetectsCorruption(t *testing.T) {
	fr := Frame{Dst: Broadcast, Src: MAC{2, 0, 0, 0, 0, 1}, Type: TypeTest, Payload: make([]byte, 64)}
	b, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit anywhere in the body; FCS must catch it.
	for _, i := range []int{0, 7, 13, 20, len(b) - FCSLen - 1} {
		c := append([]byte(nil), b...)
		c[i] ^= 0x40
		var got Frame
		if err := got.Unmarshal(c); err != ErrBadFCS {
			t.Errorf("bit flip at %d: err = %v, want ErrBadFCS", i, err)
		}
	}
}

func TestPeekers(t *testing.T) {
	fr := Frame{Dst: MAC{1, 2, 3, 4, 5, 6}, Src: MAC{6, 5, 4, 3, 2, 1}, Type: TypeIPv4, Payload: make([]byte, 64)}
	b, _ := fr.Marshal()
	if d, err := PeekDst(b); err != nil || d != fr.Dst {
		t.Errorf("PeekDst = %v, %v", d, err)
	}
	if s, err := PeekSrc(b); err != nil || s != fr.Src {
		t.Errorf("PeekSrc = %v, %v", s, err)
	}
	if ty, err := PeekType(b); err != nil || ty != TypeIPv4 {
		t.Errorf("PeekType = %#x, %v", ty, err)
	}
	if _, err := PeekDst(b[:3]); err == nil {
		t.Error("PeekDst on truncated buffer should fail")
	}
	if _, err := PeekSrc(b[:8]); err == nil {
		t.Error("PeekSrc on truncated buffer should fail")
	}
	if _, err := PeekType(b[:13]); err == nil {
		t.Error("PeekType on truncated buffer should fail")
	}
}

func TestMarshalUnmarshalProperty(t *testing.T) {
	f := func(dst, src MAC, ty uint16, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		fr := Frame{Dst: dst, Src: src, Type: ty, Payload: payload}
		b, err := fr.Marshal()
		if err != nil {
			return false
		}
		var got Frame
		if err := got.Unmarshal(b); err != nil {
			return false
		}
		n := len(payload)
		return got.Dst == dst && got.Src == src && got.Type == ty &&
			bytes.Equal(got.Payload[:n], payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWireBits(t *testing.T) {
	fr := Frame{Payload: make([]byte, 1000)}
	want := (HeaderLen+1000+FCSLen)*8 + OverheadBits
	if got := fr.WireBits(); got != want {
		t.Errorf("WireBits = %d, want %d", got, want)
	}
}

func BenchmarkMarshal(b *testing.B) {
	fr := Frame{Dst: Broadcast, Type: TypeTest, Payload: make([]byte, 1024)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fr.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	fr := Frame{Dst: Broadcast, Type: TypeTest, Payload: make([]byte, 1024)}
	buf, _ := fr.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var got Frame
		if err := got.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSlabBlocks pins the slab's carving rule. A carve that fits the
// current block comes from it, right after the previous carve; only a
// carve that does not fit opens a block. A bounded slab's blocks never
// exceed MaxBlock unless one frame needs more, and an unbounded one grows
// to 64 KB and stops. Every carve has cap == len, so no holder can append
// into its neighbour.
func TestSlabBlocks(t *testing.T) {
	sizes := []int{64, 1518, 64, 100, 64, 1518, 1518, 700, 64, 3000, 64}
	for _, bound := range []int{2 << 10, 0, 512} {
		s := Slab{MaxBlock: bound}
		limit := bound
		if limit == 0 {
			limit = slabMaxBlock
		}
		var prevEnd unsafe.Pointer
		reached := false
		for round := 0; round < 200; round++ {
			for _, n := range sizes {
				left := len(s.buf)
				b := s.take(n)
				if len(b) != n || cap(b) != n {
					t.Fatalf("bound %d: carve of %d has len %d cap %d", bound, n, len(b), cap(b))
				}
				if n <= left {
					if unsafe.Pointer(&b[0]) != prevEnd {
						t.Fatalf("bound %d: a %d-byte carve opened a block with %d bytes left", bound, n, left)
					}
				} else if block := n + len(s.buf); block > max(limit, n) {
					t.Fatalf("bound %d: a %d-byte carve opened a %d-byte block", bound, n, block)
				} else {
					reached = reached || block == limit
				}
				prevEnd = unsafe.Add(unsafe.Pointer(&b[0]), n)
			}
		}
		if !reached {
			t.Errorf("bound %d: no block of %d bytes was opened", bound, limit)
		}
	}
}
