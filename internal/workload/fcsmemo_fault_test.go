package workload

import (
	"testing"

	"github.com/switchware/activebridge/internal/fault"
	"github.com/switchware/activebridge/internal/netsim"
)

// TestFCSMemoWithGilbertElliottCorruption is the corruption regression at
// system level. The host-side FCS memo is sound only because corrupted
// frames never reach a receiver: a corrupt verdict on the medium
// (netsim.FaultCorrupt) stands for every receiver's FCS check failing, so
// the memo can never certify damaged bytes. A bursty Gilbert-Elliott stream with a high corrupt rate
// hammers exactly the reuse the memo exploits — one template buffer
// re-sent hundreds of times — and every accounting identity below breaks
// the moment a corrupted frame slips past the memo.
func TestFCSMemoWithGilbertElliottCorruption(t *testing.T) {
	sim, h1, h2 := pair(t)
	lan := h2.NIC.Segment()
	st := fault.NewStream(fault.DeriveSeed(42, "segment/lan"), fault.Model{
		Corrupt:   0.25,
		GoodToBad: 0.05, BadToGood: 0.3, BadDrop: 0.4,
	})
	lan.SetFault(st.Verdict)

	delivered := 0
	h2.onTest = func(payload []byte, _ netsim.Time) { delivered++ }

	const sent = 400
	payload := make([]byte, 256)
	for i := 0; i < sent; i++ {
		at := sim.Now().Add(netsim.Duration(i+1) * netsim.Millisecond)
		sim.Schedule(at, func() {
			// Identical payload every time: the sender's template memo
			// re-transmits the same marshalled buffer, so the receiver's
			// FCS memo sees maximal identity reuse.
			if err := h1.SendTest(h2.MAC, payload); err != nil {
				t.Error(err)
			}
		})
	}
	sim.Run(sim.Now().Add(netsim.Duration(sent+100) * netsim.Millisecond))

	if lan.Frames != sent {
		t.Fatalf("segment carried %d frames, want the %d sent", lan.Frames, sent)
	}
	corrupts := lan.FaultCorrupts
	drops := lan.FaultDrops
	if corrupts == 0 {
		t.Fatal("Gilbert-Elliott stream never corrupted a frame; regression test is vacuous")
	}
	if drops == 0 {
		t.Error("burst chain never dropped a frame")
	}
	// Corrupted and dropped frames die on the wire and never reach the
	// adapter; everything else is delivered and decoded.
	got := uint64(sent) - corrupts - drops
	if uint64(delivered) != got {
		t.Errorf("delivered = %d, want %d (sent %d - corrupt %d - drop %d)",
			delivered, got, sent, corrupts, drops)
	}
	if h2.NIC.RxFrames != got {
		t.Errorf("adapter accepted %d frames, want %d: a damaged frame reached it",
			h2.NIC.RxFrames, got)
	}
	// Every delivered frame passed exactly one memo decision — corrupted
	// frames never entered the memo, warm or cold.
	if hm := h2.fcsMemo.Hits + h2.fcsMemo.Misses; hm != uint64(delivered) {
		t.Errorf("memo hits+misses = %d, want %d (one decision per delivered frame)",
			hm, delivered)
	}
	// The reuse the memo exists for actually happened: the identical
	// re-sent buffer short-circuits the CRC on nearly every delivery.
	if h2.fcsMemo.Hits == 0 {
		t.Error("memo never hit despite identical re-sent buffers")
	}
	if h2.fcsMemo.Misses > h2.fcsMemo.Hits {
		t.Errorf("misses %d > hits %d: template reuse not reaching the memo",
			h2.fcsMemo.Misses, h2.fcsMemo.Hits)
	}
}
