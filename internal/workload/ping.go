package workload

import (
	"github.com/switchware/activebridge/internal/icmp"
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/netsim"
)

// Pinger reproduces the paper's Figure 9 methodology: "We measured latency
// with the ping facility for generating ICMP ECHOs, using various packet
// sizes". One echo is outstanding at a time; each reply's RTT is recorded.
type Pinger struct {
	host *Host
	dst  ipv4.Addr
	size int
	id   uint16

	seq     uint16
	sentAt  map[uint16]netsim.Time
	rtts    []netsim.Duration
	want    int
	done    func()
	timeout netsim.Duration
	// rttHist receives each reply's RTT when the pinger is instrumented
	// (see Instrument in metrics.go).
	rttHist *metrics.Histogram
}

// NewPinger prepares count echoes of the given ICMP data size from h to
// dst. A negative size is taken as 0.
func NewPinger(h *Host, dst ipv4.Addr, size, count int) *Pinger {
	if size < 0 {
		size = 0
	}
	p := &Pinger{
		host: h, dst: dst, size: size, id: 0x4242,
		sentAt: map[uint16]netsim.Time{},
		want:   count,
	}
	h.onEchoReply = p.onReply
	return p
}

// Run sends the echoes (a new one as each reply arrives) and returns when
// all have been answered or the deadline passes.
func (p *Pinger) Run(deadline netsim.Time) {
	p.sendNext()
	p.host.sim.Run(deadline)
}

// Start sends the first echo without driving the simulation, for callers
// running several workloads concurrently under one clock (each reply
// still releases the next echo).
func (p *Pinger) Start() { p.sendNext() }

func (p *Pinger) sendNext() {
	if len(p.rtts) >= p.want {
		return
	}
	p.seq++
	p.sentAt[p.seq] = p.host.sim.Now()
	e := icmp.Echo{ID: p.id, Seq: p.seq, Data: make([]byte, p.size)}
	// Errors (no neighbor) would be programming errors in the harness;
	// they surface as zero RTT samples.
	_ = p.host.SendIP(p.dst, ipv4.ProtoICMP, e.Marshal())
}

func (p *Pinger) onReply(e *icmp.Echo, at netsim.Time) {
	if e.ID != p.id {
		return
	}
	t0, ok := p.sentAt[e.Seq]
	if !ok {
		return
	}
	delete(p.sentAt, e.Seq)
	rtt := at.Sub(t0)
	p.rtts = append(p.rtts, rtt)
	p.observeRTT(rtt)
	p.sendNext()
}

// RTTs returns the collected round-trip times.
func (p *Pinger) RTTs() []netsim.Duration { return append([]netsim.Duration(nil), p.rtts...) }

// MeanRTT returns the average round-trip time.
func (p *Pinger) MeanRTT() netsim.Duration {
	if len(p.rtts) == 0 {
		return 0
	}
	var sum netsim.Duration
	for _, r := range p.rtts {
		sum += r
	}
	return sum / netsim.Duration(len(p.rtts))
}

// Completed reports how many replies arrived.
func (p *Pinger) Completed() int { return len(p.rtts) }
