package script

import (
	"strings"
	"testing"
)

func run(t *testing.T, src string) (string, error) {
	t.Helper()
	var out strings.Builder
	w := NewWorld(&out)
	err := w.Run(src)
	return out.String(), err
}

func mustRun(t *testing.T, src string) string {
	t.Helper()
	out, err := run(t, src)
	if err != nil {
		t.Fatalf("script failed: %v\noutput:\n%s", err, out)
	}
	return out
}

func TestBasicTopologyAndPing(t *testing.T) {
	out := mustRun(t, `
segment lan1
segment lan2
bridge br0 lan1 lan2
host h1 lan1 10.0.0.1
host h2 lan2 10.0.0.2
load br0 learning
ping h1 h2 64 5
`)
	if !strings.Contains(out, "5/5 replies") {
		t.Errorf("ping incomplete:\n%s", out)
	}
}

func TestARPOnlyResolution(t *testing.T) {
	// No static neighbors anywhere: the hosts must ARP across the bridge.
	out := mustRun(t, `
segment a
segment b
bridge br a b
host x a 192.168.1.1
host y b 192.168.1.2
load br learning
ping x y 128 3
`)
	if !strings.Contains(out, "3/3 replies") {
		t.Errorf("ARP-mediated ping failed:\n%s", out)
	}
}

func TestTtcpCommand(t *testing.T) {
	out := mustRun(t, `
segment lan
host a lan 10.0.0.1
host b lan 10.0.0.2
ttcp a b 8192 1048576
`)
	if !strings.Contains(out, "done=true") {
		t.Errorf("ttcp incomplete:\n%s", out)
	}
}

func TestUploadOverNetwork(t *testing.T) {
	out := mustRun(t, `
segment lan1
segment lan2
bridge br0 lan1 lan2
netloader br0 10.0.0.100
host h1 lan1 10.0.0.1
host h2 lan2 10.0.0.2
upload h1 br0 learning
ping h1 h2 64 2
`)
	if !strings.Contains(out, "done=true err=<nil>") {
		t.Errorf("upload failed:\n%s", out)
	}
	if !strings.Contains(out, "2/2 replies") {
		t.Errorf("traffic does not flow after network load:\n%s", out)
	}
}

func TestTransitionViaScript(t *testing.T) {
	out := mustRun(t, `
segment s0
segment s1
segment s2
bridge b1 s0 s1
bridge b2 s1 s2
load b1 learning
load b1 dec
load b1 spanning
load b1 control
load b2 learning
load b2 dec
load b2 spanning
load b2 control
run 40s
expect b1 dec.running yes
expect b1 ieee.running no
inject-ieee s0
run 2s
expect b1 ieee.running yes
expect b2 ieee.running yes
run 70s
expect b1 control.phase complete
expect b2 control.phase complete
`)
	if !strings.Contains(out, "expect b2 control.phase = complete: ok") {
		t.Errorf("transition script:\n%s", out)
	}
}

func TestQueryAndStats(t *testing.T) {
	out := mustRun(t, `
segment lan
bridge br lan
load br learning
query br learning.size
stats
`)
	if !strings.Contains(out, "learning.size = ") {
		t.Errorf("query output missing:\n%s", out)
	}
	if !strings.Contains(out, "br: in=") {
		t.Errorf("stats output missing:\n%s", out)
	}
}

func TestBridgeStatsThroughMetricsView(t *testing.T) {
	out := mustRun(t, `
segment lan1
segment lan2
bridge br0 lan1 lan2
host h1 lan1 10.0.0.1
host h2 lan2 10.0.0.2
load br0 learning
ping h1 h2 64 3
stats br0
`)
	// The per-bridge view serves the same instruments a scrape would:
	// frame counters, drops, VM/kernel time, lifecycle counts and the
	// installed switchlet versions.
	for _, frag := range []string{
		`ab_bridge_frames_in_total{bridge="br0"}`,
		`ab_bridge_no_handler_drops_total{bridge="br0"}`,
		`ab_bridge_vm_time_ns_total{bridge="br0"}`,
		`ab_bridge_kernel_time_ns_total{bridge="br0"}`,
		`ab_bridge_switchlet_installs_total{bridge="br0"} 1`,
		`ab_bridge_switchlet_info{bridge="br0",module="Learning",version="`,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("stats br0 output missing %q:\n%s", frag, out)
		}
	}
	// Frames flowed, so the counter must be nonzero.
	if strings.Contains(out, `ab_bridge_frames_in_total{bridge="br0"} 0`) {
		t.Errorf("frames_in still zero after traffic:\n%s", out)
	}
	if _, err := run(t, "stats nosuch"); err == nil || !strings.Contains(err.Error(), "unknown bridge") {
		t.Errorf("stats nosuch: err = %v", err)
	}
}

func TestScriptErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{"segment", "usage"},
		{"segment a\nsegment a", "already exists"},
		{"bridge b nosuch", "unknown segment"},
		{"host h nosuch 10.0.0.1", "unknown segment"},
		{"segment a\nhost h a notanip", "malformed"},
		{"load nosuch learning", "unknown bridge"},
		{"segment a\nbridge b a\nload b nosuchlet", "unknown switchlet"},
		{"frobnicate", "unknown command"},
		{"run banana", "invalid duration"},
		{"segment a\nbridge b a\nupload h b learning", "unknown host"},
		{"segment a\nhost h a 10.0.0.1\nbridge b a\nupload h b learning", "no netloader"},
		{"segment a\nbridge b a\nquery b nothing.here", "no registered function"},
		{"segment a\nbridge b a\nload b learning\nexpect b learning.size 999", "expect failed"},
		{"ping x y 64 1", "unknown host"},
		{"stats nope", "unknown bridge"},
		{"segment a\nbridge b a\nstats b extra", "usage"},
	}
	for _, c := range cases {
		if _, err := run(t, c.src); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("script %q: err = %v, want fragment %q", c.src, err, c.frag)
		}
	}
}

// TestRunPastEndOfTimeKeepsClock: a run whose deadline would pass the
// end of virtual time is refused, naming the duration, and leaves the
// clock where it was, so the next run starts from there.
func TestRunPastEndOfTimeKeepsClock(t *testing.T) {
	var out strings.Builder
	w := NewWorld(&out)
	if err := w.Run("run 1s"); err != nil {
		t.Fatal(err)
	}
	err := w.Run("run 2562047h47m16s")
	if err == nil || !strings.Contains(err.Error(), "2562047h47m16s") {
		t.Fatalf("err = %v, want an error naming the duration", err)
	}
	if err := w.Run("run 1s"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out.String(), "t = 2.000s\n") {
		t.Errorf("clock moved under the refused run:\n%s", out.String())
	}
}

func TestFailHealSegment(t *testing.T) {
	out := mustRun(t, `
segment lan1
segment lan2
bridge br0 lan1 lan2
host h1 lan1 10.0.0.1
host h2 lan2 10.0.0.2
load br0 learning
ping h1 h2 64 2
fail lan2
ping h1 h2 64 2
heal lan2
ping h1 h2 64 2
faults
`)
	if !strings.Contains(out, "segment lan2 down") {
		t.Errorf("fail output missing:\n%s", out)
	}
	if !strings.Contains(out, "0/2 replies") {
		t.Errorf("pings crossed a cut segment:\n%s", out)
	}
	if !strings.Contains(out, "segment lan2 up") {
		t.Errorf("heal output missing:\n%s", out)
	}
	// First and last ping exchanges both complete.
	if strings.Count(out, "2/2 replies") != 2 {
		t.Errorf("delivery did not resume after heal:\n%s", out)
	}
	if !strings.Contains(out, "segment lan1: up") || !strings.Contains(out, "segment lan2: up") {
		t.Errorf("faults listing missing segments:\n%s", out)
	}
	if !strings.Contains(out, "bridge br0: running") {
		t.Errorf("faults listing missing bridge:\n%s", out)
	}
}

func TestFailHealBridge(t *testing.T) {
	out := mustRun(t, `
segment lan1
segment lan2
bridge br0 lan1 lan2
host h1 lan1 10.0.0.1
host h2 lan2 10.0.0.2
load br0 learning
ping h1 h2 64 2
fail br0
faults
ping h1 h2 64 2
heal br0
ping h1 h2 64 2
`)
	if !strings.Contains(out, "bridge br0 crashed") {
		t.Errorf("crash output missing:\n%s", out)
	}
	if !strings.Contains(out, "bridge br0: crashed crashes=1 restarts=0") {
		t.Errorf("faults listing missing crash state:\n%s", out)
	}
	if !strings.Contains(out, "0/2 replies") {
		t.Errorf("pings crossed a crashed bridge:\n%s", out)
	}
	if !strings.Contains(out, "bridge br0 restarted") {
		t.Errorf("restart output missing:\n%s", out)
	}
	// The restart reinstalls the snapshot: learning is cold but present,
	// so the final exchange floods, re-learns and completes.
	if strings.Count(out, "2/2 replies") != 2 {
		t.Errorf("delivery did not resume after restart:\n%s", out)
	}
}

func TestFailDuringUpgradeValidationRollsBack(t *testing.T) {
	// A link fault inside the validation window must abort the DEC→IEEE
	// transition: the Manager rolls back to the old protocol instead of
	// committing across a degraded network.
	out := mustRun(t, `
segment lan1
segment lan2
bridge br0 lan1 lan2
load br0 dec
run 35s
upgrade br0 Decspan spanning
run 5s
fail lan2
heal lan2
run 70s
expect br0 dec.running yes
expect br0 ieee.running no
`)
	if !strings.Contains(out, "expect br0 dec.running = yes: ok") {
		t.Errorf("old protocol not restored after fault-triggered rollback:\n%s", out)
	}
}

func TestFaultCommandErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{"fail", "usage"},
		{"heal", "usage"},
		{"fail nosuch", "unknown segment or bridge"},
		{"heal nosuch", "unknown segment or bridge"},
		{"segment a\nfaults extra", "usage"},
	}
	for _, c := range cases {
		if _, err := run(t, c.src); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("script %q: err = %v, want fragment %q", c.src, err, c.frag)
		}
	}
	// Redundant transitions are no-ops, not errors.
	out := mustRun(t, "segment a\nheal a\nsegment b\nbridge br a b\nheal br")
	if !strings.Contains(out, "segment a already up") || !strings.Contains(out, "bridge br already running") {
		t.Errorf("redundant heal not reported:\n%s", out)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	mustRun(t, `
# a comment

segment lan
# another
`)
}

func TestBuiltinManifestTable(t *testing.T) {
	for _, k := range []string{"dumb", "learning", "spanning", "spanbug", "dec", "control"} {
		m, err := resolveManifest(k)
		if err != nil {
			t.Errorf("missing builtin %s: %v", k, err)
			continue
		}
		if err := m.Validate(); err != nil {
			t.Errorf("builtin %s manifest invalid: %v", k, err)
		}
	}
	if _, err := resolveManifest("nope"); err == nil {
		t.Error("phantom builtin")
	}
}

func TestSwitchletsAndUpgradeCommands(t *testing.T) {
	out := mustRun(t, `
segment lan1
segment lan2
bridge br0 lan1 lan2
load br0 dec
run 35s
switchlets br0
upgrade br0 Decspan spanning
run 70s
expect br0 ieee.running yes
expect br0 dec.running no
`)
	if !strings.Contains(out, "Decspan@1.0.0") {
		t.Errorf("switchlets listing missing manifest ref:\n%s", out)
	}
	if !strings.Contains(out, "state=validating") {
		t.Errorf("upgrade output missing state:\n%s", out)
	}
}

func TestVerifyCommand(t *testing.T) {
	out := mustRun(t, `
verify learning
verify spanning
`)
	if !strings.Contains(out, "verify learning: ok module=Learning") {
		t.Errorf("missing learning verdict:\n%s", out)
	}
	if !strings.Contains(out, "verify spanning: ok module=Spanning") {
		t.Errorf("missing spanning verdict:\n%s", out)
	}
	if strings.Contains(out, "warning:") {
		t.Errorf("builtins must verify without warnings:\n%s", out)
	}
	if _, err := run(t, `verify nosuch`); err == nil {
		t.Error("verify of an unknown switchlet must fail")
	}
}

// TestStatsOutputIsOrdered pins `stats` to name order, bridges before
// hosts: twenty fresh worlds (twenty map seeds) must print identical bytes.
func TestStatsOutputIsOrdered(t *testing.T) {
	const src = `
segment lan
bridge br2 lan
bridge br0 lan
bridge br1 lan
host h3 lan 10.0.0.3
host h1 lan 10.0.0.1
host h2 lan 10.0.0.2
stats
`
	first := mustRun(t, src)
	var order []string
	for _, ln := range strings.Split(strings.TrimSpace(first), "\n") {
		order = append(order, ln[:strings.Index(ln, ":")])
	}
	if got, want := strings.Join(order, " "), "br0 br1 br2 h1 h2 h3"; got != want {
		t.Fatalf("stats order %q, want %q\n%s", got, want, first)
	}
	for i := 1; i < 20; i++ {
		if out := mustRun(t, src); out != first {
			t.Fatalf("world %d printed stats differently:\n%s\nfirst:\n%s", i, out, first)
		}
	}
}
