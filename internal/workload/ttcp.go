package workload

import (
	"encoding/binary"

	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
)

// MSS is the largest test-stream segment (TCP over Ethernet: 1500 - 40).
const MSS = 1460

// Ttcp reproduces the paper's Figure 10 methodology: "Throughput for
// various packet sizes was measured with repeated ttcp trials."
//
// The stream is closed-loop: at most Window segments are outstanding, and
// the delivery of a segment at the receiver releases the next (the
// steady-state self-clocking of the TCP connection ttcp rides on).
// Acknowledgment frames themselves are not modelled: the bottleneck the
// paper measures is the unidirectional per-frame software path, and an
// ack is a small frame travelling the other way that adds nothing to it.
type Ttcp struct {
	src, dst  *Host
	WriteSize int   // application write size in bytes
	Total     int64 // bytes to transfer
	Window    int   // segments in flight

	segSize int
	// payloadScratch is reused across pump calls: SendTest copies the
	// payload into the marshalled frame and does not retain it.
	payloadScratch []byte
	inflight       int
	sent           int64
	delivered      int64
	frames         uint64

	started netsim.Time
	ended   netsim.Time
	done    bool
}

// NewTtcp prepares a transfer of total bytes from src to dst using the
// given application write size.
func NewTtcp(src, dst *Host, writeSize int, total int64) *Ttcp {
	t := &Ttcp{src: src, dst: dst, WriteSize: writeSize, Total: total, Window: 32}
	t.segSize = writeSize
	if t.segSize > MSS {
		t.segSize = MSS // TCP segments large writes at the MSS
	}
	if t.segSize < 2 {
		t.segSize = 2
	}
	dst.onTest = t.onDelivery
	return t
}

// Start begins the transfer without driving the simulation (for callers
// running several transfers concurrently under one simulation loop).
func (t *Ttcp) Start() {
	t.started = t.src.sim.Now()
	t.pump()
}

// Run starts the transfer and runs the simulation until completion or the
// deadline.
func (t *Ttcp) Run(deadline netsim.Time) {
	t.Start()
	t.src.sim.Run(deadline)
}

// pump keeps Window segments outstanding.
func (t *Ttcp) pump() {
	for t.inflight < t.Window && t.sent < t.Total {
		n := int64(t.segSize)
		if rem := t.Total - t.sent; n > rem {
			n = rem
			if n < 2 {
				n = 2
			}
		}
		if int64(cap(t.payloadScratch)) < n {
			t.payloadScratch = make([]byte, n)
		}
		// Only the 2-byte length prefix is ever nonzero, so the scratch
		// needs no re-clearing between frames.
		payload := t.payloadScratch[:n]
		binary.BigEndian.PutUint16(payload[0:2], uint16(n))
		t.sent += n
		t.inflight++
		_ = t.src.SendTest(t.dst.MAC, payload)
	}
}

func (t *Ttcp) onDelivery(payload []byte, at netsim.Time) {
	if t.done || len(payload) < 2 {
		return
	}
	n := int64(binary.BigEndian.Uint16(payload[0:2]))
	t.delivered += n
	t.frames++
	t.inflight--
	if t.delivered >= t.Total {
		t.done = true
		t.ended = at
		return
	}
	t.pump()
}

// Done reports completion.
func (t *Ttcp) Done() bool { return t.done }

// DeliveredBytes reports how much of the stream has arrived so far —
// the liveness measure for transfers deliberately sized to outlast an
// observation window (e.g. load held across a rolling upgrade).
func (t *Ttcp) DeliveredBytes() int64 { return t.delivered }

// Elapsed is the transfer duration (zero until done).
func (t *Ttcp) Elapsed() netsim.Duration {
	if !t.done {
		return 0
	}
	return t.ended.Sub(t.started)
}

// ThroughputMbps returns goodput in megabits per second.
func (t *Ttcp) ThroughputMbps() float64 {
	el := t.Elapsed()
	if el <= 0 {
		return 0
	}
	return float64(t.delivered) * 8 / el.Seconds() / 1e6
}

// FramesPerSecond returns the delivered frame rate.
func (t *Ttcp) FramesPerSecond() float64 {
	el := t.Elapsed()
	if el <= 0 {
		return 0
	}
	return float64(t.frames) / el.Seconds()
}

// FrameLen returns the on-wire frame length of a data segment.
func (t *Ttcp) FrameLen() int {
	p := t.segSize
	if p < ethernet.MinPayload {
		p = ethernet.MinPayload
	}
	return ethernet.HeaderLen + p + ethernet.FCSLen
}
