package workload

import (
	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/netsim"
)

// Instrument registers the transfer's live counters into a metrics
// registry under the given labels (callers add net/flow identity).
// Everything is sampled at quiescent points from state the stream
// already keeps; the stream's behaviour is untouched.
func (t *Ttcp) Instrument(reg *metrics.Registry, ls metrics.Labels) {
	reg.SampleCounter("ab_ttcp_delivered_bytes_total", "stream bytes arrived at the receiver", ls,
		func() float64 { return float64(t.delivered) })
	reg.SampleCounter("ab_ttcp_frames_total", "stream data frames delivered", ls,
		func() float64 { return float64(t.frames) })
	reg.SampleGauge("ab_ttcp_inflight_segments", "segments outstanding in the closed loop", ls,
		func() float64 { return float64(t.inflight) })
	reg.SampleGauge("ab_ttcp_done", "1 once the transfer completed", ls,
		func() float64 {
			if t.done {
				return 1
			}
			return 0
		})
	reg.SampleGauge("ab_ttcp_throughput_mbps", "goodput so far (live until completion, then final)", ls,
		func() float64 { return t.LiveThroughputMbps() })
}

// LiveThroughputMbps reports goodput over the elapsed transfer window:
// the final figure once done, the running figure while the stream is
// still moving (zero before any delivery).
func (t *Ttcp) LiveThroughputMbps() float64 {
	if t.done {
		return t.ThroughputMbps()
	}
	if t.delivered == 0 {
		return 0
	}
	el := t.src.sim.Now().Sub(t.started)
	if el <= 0 {
		return 0
	}
	return float64(t.delivered) * 8 / el.Seconds() / 1e6
}

// PingRTTBucketsMs is the fixed bucket layout of the ping RTT histogram
// (milliseconds): spans a same-segment reply to a storm-congested
// multi-bridge path.
var PingRTTBucketsMs = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128}

// Instrument registers the pinger's counters and a fixed-bucket RTT
// histogram under the given labels. The histogram is fed directly from
// the reply path — a single-writer, allocation-free observation that
// cannot perturb virtual time.
func (p *Pinger) Instrument(reg *metrics.Registry, ls metrics.Labels) {
	if p.rttHist != nil {
		// A second registration would silently orphan the first
		// registry's histogram (its count freezing while the sampled
		// companions keep moving) — a misuse, like re-registering a
		// series.
		panic("workload: Pinger already instrumented")
	}
	p.rttHist = reg.Histogram("ab_ping_rtt_ms", "echo round-trip time distribution (virtual ms)", ls, PingRTTBucketsMs)
	for _, r := range p.rtts {
		// Replies that arrived before instrumentation still count.
		p.rttHist.Observe(float64(r) / 1e6)
	}
	reg.SampleCounter("ab_ping_replies_total", "echo replies received", ls,
		func() float64 { return float64(len(p.rtts)) })
	reg.SampleGauge("ab_ping_mean_rtt_ms", "mean echo round-trip time (virtual ms)", ls,
		func() float64 { return float64(p.MeanRTT()) / 1e6 })
}

// observeRTT feeds the instrument, if any.
func (p *Pinger) observeRTT(rtt netsim.Duration) {
	if p.rttHist != nil {
		p.rttHist.Observe(float64(rtt) / 1e6)
	}
}
