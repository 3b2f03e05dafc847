package testbed

import (
	"testing"

	"github.com/switchware/activebridge/internal/netsim"
)

func TestPathStringBounds(t *testing.T) {
	for p, want := range map[Path]string{
		Direct: "direct", Repeater: "repeater",
		ActiveBridge: "active-bridge", NativeBridge: "native-bridge",
	} {
		if got := p.String(); got != want {
			t.Errorf("Path(%d).String() = %q, want %q", int(p), got, want)
		}
		if !p.Valid() {
			t.Errorf("Path(%d) should be valid", int(p))
		}
	}
	// Out-of-range values must render, not panic.
	for _, p := range []Path{Path(-1), Path(4), Path(99)} {
		if p.Valid() {
			t.Errorf("Path(%d) should be invalid", int(p))
		}
		if got := p.String(); got == "" {
			t.Errorf("Path(%d).String() = empty", int(p))
		}
	}
}

func TestPingCompletesOnAllPaths(t *testing.T) {
	for _, p := range []Path{Direct, Repeater, ActiveBridge, NativeBridge} {
		tb := New(p, netsim.DefaultCostModel())
		tb.Warm()
		rtt := tb.PingRTT(64, 5)
		if rtt <= 0 {
			t.Errorf("%v: no ping replies", p)
		}
	}
}

func TestPingLatencyOrdering(t *testing.T) {
	cost := netsim.DefaultCostModel()
	rtt := map[Path]netsim.Duration{}
	for _, p := range []Path{Direct, Repeater, ActiveBridge, NativeBridge} {
		tb := New(p, cost)
		tb.Warm()
		rtt[p] = tb.PingRTT(64, 10)
	}
	// Paper Figure 9 ordering: direct < repeater < active bridge.
	if !(rtt[Direct] < rtt[Repeater] && rtt[Repeater] < rtt[ActiveBridge]) {
		t.Errorf("latency ordering violated: direct=%v repeater=%v active=%v",
			rtt[Direct], rtt[Repeater], rtt[ActiveBridge])
	}
	// The native ablation sits between repeater and bytecode bridge.
	if !(rtt[NativeBridge] < rtt[ActiveBridge]) {
		t.Errorf("native bridge (%v) should beat bytecode bridge (%v)",
			rtt[NativeBridge], rtt[ActiveBridge])
	}
	// §7.2: the interpreter adds a few hundred microseconds per frame
	// each way over the native path.
	gap := rtt[ActiveBridge] - rtt[NativeBridge]
	if gap < 200*netsim.Microsecond || gap > 3*netsim.Millisecond {
		t.Errorf("VM latency contribution per RTT = %v, want ~0.5-1.5 ms", gap)
	}
}

func TestPingLatencyGrowsWithSize(t *testing.T) {
	tb := New(ActiveBridge, netsim.DefaultCostModel())
	tb.Warm()
	small := tb.PingRTT(64, 5)
	big := tb.PingRTT(4096, 5)
	if big <= small {
		t.Errorf("RTT(4096)=%v should exceed RTT(64)=%v", big, small)
	}
}

func TestTtcpThroughputOrdering(t *testing.T) {
	cost := netsim.DefaultCostModel()
	mbps := map[Path]float64{}
	for _, p := range []Path{Direct, Repeater, ActiveBridge, NativeBridge} {
		tb := New(p, cost)
		tb.Warm()
		tr := tb.TtcpRun(8192, 4<<20)
		if !tr.Done() {
			t.Fatalf("%v: transfer did not complete", p)
		}
		mbps[p] = tr.ThroughputMbps()
	}
	t.Logf("throughput: direct=%.1f repeater=%.1f active=%.1f native=%.1f",
		mbps[Direct], mbps[Repeater], mbps[ActiveBridge], mbps[NativeBridge])
	if !(mbps[Direct] > mbps[Repeater] && mbps[Repeater] > mbps[ActiveBridge]) {
		t.Errorf("throughput ordering violated: %v", mbps)
	}
	if !(mbps[NativeBridge] > mbps[ActiveBridge]) {
		t.Errorf("native should beat bytecode")
	}

	// Calibration anchors (paper §7.3): direct ≈ 76 Mb/s, active ≈ 16,
	// active ≈ 40-50%% of repeater. Tolerances are generous — shape, not
	// absolute identity, is the reproduction target.
	if mbps[Direct] < 60 || mbps[Direct] > 95 {
		t.Errorf("direct = %.1f Mb/s, want ~76", mbps[Direct])
	}
	if mbps[ActiveBridge] < 10 || mbps[ActiveBridge] > 24 {
		t.Errorf("active bridge = %.1f Mb/s, want ~16", mbps[ActiveBridge])
	}
	ratio := mbps[ActiveBridge] / mbps[Repeater]
	if ratio < 0.30 || ratio > 0.60 {
		t.Errorf("active/repeater = %.2f, want ~0.44", ratio)
	}
}

func TestTtcpFrameRateNeighborhood(t *testing.T) {
	// §7.3: "1790 frames per second for 1024 byte frames".
	tb := New(ActiveBridge, netsim.DefaultCostModel())
	tb.Warm()
	tr := tb.TtcpRun(1024, 2<<20)
	if !tr.Done() {
		t.Fatal("transfer incomplete")
	}
	fps := tr.FramesPerSecond()
	if fps < 1200 || fps > 2400 {
		t.Errorf("frame rate = %.0f fps at 1024 B, want neighborhood of 1800", fps)
	}
}

func TestThroughputMonotoneInWriteSize(t *testing.T) {
	tb0 := New(ActiveBridge, netsim.DefaultCostModel())
	tb0.Warm()
	small := tb0.TtcpRun(128, 1<<20).ThroughputMbps()
	tb1 := New(ActiveBridge, netsim.DefaultCostModel())
	tb1.Warm()
	large := tb1.TtcpRun(8192, 1<<20).ThroughputMbps()
	if !(large > small) {
		t.Errorf("throughput should grow with write size: 128B=%.1f 8192B=%.1f", small, large)
	}
}

func TestHostCPUAccounting(t *testing.T) {
	tb := New(Direct, netsim.DefaultCostModel())
	tb.Warm()
	tr := tb.TtcpRun(8192, 1<<20)
	if !tr.Done() {
		t.Fatal("transfer incomplete")
	}
	if tb.H1.CPU().Busy == 0 || tb.H2.CPU().Busy == 0 {
		t.Error("host CPU time not accounted")
	}
	if tb.H1.FramesOut == 0 || tb.H2.FramesIn == 0 {
		t.Error("host frame counters not accounted")
	}
}
