package activebridge_test

import (
	"testing"

	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/testbed"
)

// frameRatesRun executes the §7.3 frame-rate experiment at
// the 1024-byte point and returns its full determinism fingerprint plus
// the two headline metrics.
func frameRatesRun() (string, float64, float64) {
	cost := netsim.DefaultCostModel()
	tb := testbed.New(testbed.ActiveBridge, cost)
	tb.Warm()
	tr := tb.TtcpRun(1024, 2<<20)
	return tb.Net.Fingerprint(), tr.FramesPerSecond(), tr.ThroughputMbps()
}

// TestFrameRatesDeterministic runs the experiment twice in one process:
// every virtual-time output, event count and interpreter counter must be
// identical. Any nondeterminism in the event queue, the VM or the frame
// pipeline shows up here first.
func TestFrameRatesDeterministic(t *testing.T) {
	fp1, fps1, mbps1 := frameRatesRun()
	fp2, fps2, mbps2 := frameRatesRun()
	if fp1 != fp2 {
		t.Fatalf("fingerprints differ across runs:\n run1 %s\n run2 %s", fp1, fp2)
	}
	if fps1 != fps2 || mbps1 != mbps2 {
		t.Fatalf("metrics differ across runs: fps %v vs %v, mbps %v vs %v", fps1, fps2, mbps1, mbps2)
	}
}

// TestFrameRatesGolden pins the experiment to golden values captured from
// the pre-optimization (container/heap + allocating interpreter) build.
// The zero-allocation fast path must keep every virtual-time result
// byte-identical; a deliberate semantic change to the cost model or the
// switchlets must update these values with justification.
func TestFrameRatesGolden(t *testing.T) {
	fp, fps, mbps := frameRatesRun()
	const want = "t=600100000000 br0[steps=172264 alloc=156120 in=2050 sent=2050 vm=758353400 kern=580731520]"
	if fp != want {
		t.Fatalf("fingerprint deviates from pre-optimization golden:\n got %s\nwant %s", fp, want)
	}
	const wantFps, wantMbps = 1530.287330, 12.536114
	if !close6(fps, wantFps) || !close6(mbps, wantMbps) {
		t.Fatalf("metrics deviate from golden: fps %.6f (want %.6f), mbps %.6f (want %.6f)", fps, wantFps, mbps, wantMbps)
	}
}

// TestFig10Golden pins the Figure 10 configuration (8 KB writes) the same
// way.
func TestFig10Golden(t *testing.T) {
	cost := netsim.DefaultCostModel()
	tb := testbed.New(testbed.ActiveBridge, cost)
	tb.Warm()
	tr := tb.TtcpRun(8192, 4<<20)
	if got := tb.Bridge.Machine.Steps; got != 241564 {
		t.Fatalf("Fig10 Machine.Steps = %d, want 241564", got)
	}
	if mbps := tr.ThroughputMbps(); !close6(mbps, 16.968022) {
		t.Fatalf("Fig10 throughput = %.6f Mbps, want 16.968022", mbps)
	}
}

// close6 compares to six decimal places, the precision the goldens were
// recorded at.
func close6(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 5e-7
}
