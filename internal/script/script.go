// Package script implements the topology/measurement scripting language of
// cmd/activebridge: a line-oriented administrative interface to the
// simulated testbed. Keeping it as a library makes the whole command
// surface testable and reusable from examples.
//
// Commands (one per line, '#' comments):
//
//	segment <name>
//	bridge <name> <segment>...
//	host <name> <segment> <ip>
//	netloader <bridge> <ip>
//	load <bridge> <builtin|file.swo>
//	upload <host> <bridge> <builtin|file.swo>
//	run <duration>
//	ping <src> <dst> <size> <count>
//	ttcp <src> <dst> <write> <total>
//	inject-ieee <segment>
//	query <bridge> <func>
//	expect <bridge> <func> <value>     (assertion; errors on mismatch)
//	switchlets <bridge>                (list installed switchlets)
//	upgrade <bridge> <old-module> <builtin>
//	verify <builtin|file.swo>          (static verification, no install)
//	stats                              (one summary line per node)
//	stats <bridge>                     (one bridge, through the metrics view)
//	fail <segment|bridge>              (cut a segment's medium / crash a bridge)
//	heal <segment|bridge>              (restore the medium / restart the bridge)
//	faults                             (fault state of every segment and bridge)
//	trace on|off|dump                  (causal tracing plane; dump renders the
//	                                   merged transcript and any flight dumps)
//	logs
//
// Loading, querying and upgrading all route through the bridge's
// lifecycle Manager: builtins resolve to their manifests, so the
// capability grant is enforced on every load.
package script

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/env"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/stp"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/tracing"
	"github.com/switchware/activebridge/internal/vm"
	"github.com/switchware/activebridge/internal/vm/verify"
	"github.com/switchware/activebridge/internal/workload"
)

// World is a script execution environment.
type World struct {
	Sim  *netsim.Sim
	Cost netsim.CostModel
	// Out receives command output (defaults to os.Stdout via Run).
	Out io.Writer

	Segments map[string]*netsim.Segment
	Bridges  map[string]*bridge.Bridge
	Hosts    map[string]*workload.Host

	nextMAC byte
	logsOn  bool
	tracer  *tracing.Tracer
}

// NewWorld creates an empty environment.
func NewWorld(out io.Writer) *World {
	if out == nil {
		out = os.Stdout
	}
	return &World{
		Sim:      netsim.New(),
		Cost:     netsim.DefaultCostModel(),
		Out:      out,
		Segments: map[string]*netsim.Segment{},
		Bridges:  map[string]*bridge.Bridge{},
		Hosts:    map[string]*workload.Host{},
	}
}

// Run executes a whole script; it stops at the first failing line.
func (w *World) Run(script string) error {
	sc := bufio.NewScanner(strings.NewReader(script))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := w.Exec(strings.Fields(line)); err != nil {
			return fmt.Errorf("line %d (%q): %w", lineNo, line, err)
		}
	}
	return nil
}

func (w *World) printf(format string, args ...interface{}) {
	fmt.Fprintf(w.Out, format, args...)
}

// Exec runs a single tokenized command.
func (w *World) Exec(f []string) error {
	if len(f) == 0 {
		return nil
	}
	switch f[0] {
	case "segment":
		if len(f) != 2 {
			return fmt.Errorf("usage: segment <name>")
		}
		if _, dup := w.Segments[f[1]]; dup {
			return fmt.Errorf("segment %s already exists", f[1])
		}
		w.Segments[f[1]] = netsim.NewSegment(w.Sim, f[1])
	case "bridge":
		if len(f) < 3 {
			return fmt.Errorf("usage: bridge <name> <segment>...")
		}
		if _, dup := w.Bridges[f[1]]; dup {
			return fmt.Errorf("bridge %s already exists", f[1])
		}
		if err := w.takeNode(); err != nil {
			return err
		}
		b := bridge.New(w.Sim, f[1], w.nextMAC, len(f)-2, w.Cost)
		b.LogSink = func(at netsim.Time, br, msg string) {
			if w.logsOn {
				w.printf("  [%8.3fs] %s: %s\n", at.Seconds(), br, msg)
			}
		}
		for i, segName := range f[2:] {
			seg, ok := w.Segments[segName]
			if !ok {
				return fmt.Errorf("unknown segment %s", segName)
			}
			seg.Attach(b.Port(i))
		}
		w.Bridges[f[1]] = b
	case "host":
		if len(f) != 4 {
			return fmt.Errorf("usage: host <name> <segment> <ip>")
		}
		if _, dup := w.Hosts[f[1]]; dup {
			return fmt.Errorf("host %s already exists", f[1])
		}
		seg, ok := w.Segments[f[2]]
		if !ok {
			return fmt.Errorf("unknown segment %s", f[2])
		}
		ip, err := ipv4.ParseAddr(f[3])
		if err != nil {
			return err
		}
		if err := w.takeNode(); err != nil {
			return err
		}
		mac := ethernet.MAC{0x02, 0x00, 0x00, 0x00, 0x00, w.nextMAC}
		h := workload.NewHost(w.Sim, f[1], mac, ip, w.Cost)
		seg.Attach(h.NIC)
		w.Hosts[f[1]] = h
	case "netloader":
		if len(f) != 3 {
			return fmt.Errorf("usage: netloader <bridge> <ip>")
		}
		b, ok := w.Bridges[f[1]]
		if !ok {
			return fmt.Errorf("unknown bridge %s", f[1])
		}
		ip, err := ipv4.ParseAddr(f[2])
		if err != nil {
			return err
		}
		b.EnableNetLoader(ip)
	case "load":
		if len(f) != 3 {
			return fmt.Errorf("usage: load <bridge> <builtin|file.swo>")
		}
		b, ok := w.Bridges[f[1]]
		if !ok {
			return fmt.Errorf("unknown bridge %s", f[1])
		}
		return w.loadSwitchlet(b, f[2])
	case "upload":
		if len(f) != 4 {
			return fmt.Errorf("usage: upload <host> <bridge> <builtin|file.swo>")
		}
		h, ok := w.Hosts[f[1]]
		if !ok {
			return fmt.Errorf("unknown host %s", f[1])
		}
		b, ok := w.Bridges[f[2]]
		if !ok {
			return fmt.Errorf("unknown bridge %s", f[2])
		}
		if (b.NetLoaderAddr() == ipv4.Addr{}) {
			return fmt.Errorf("bridge %s has no netloader", f[2])
		}
		data, name, err := w.switchletBytes(b, f[3])
		if err != nil {
			return err
		}
		end, err := w.deadline("upload", 30*netsim.Second)
		if err != nil {
			return err
		}
		up := workload.NewUploader(h, b.NetLoaderAddr(), name, data)
		w.Sim.Schedule(w.Sim.Now()+1, up.Start)
		w.Sim.Run(end)
		w.printf("upload %s -> %s: done=%v err=%v in %v\n", f[1], f[2], up.Done(), up.Err(), up.Elapsed())
		if up.Err() != nil {
			return up.Err()
		}
	case "run":
		if len(f) != 2 {
			return fmt.Errorf("usage: run <duration>")
		}
		d, err := time.ParseDuration(f[1])
		if err != nil {
			return err
		}
		if d < 0 {
			return fmt.Errorf("duration %v is negative", d)
		}
		end, err := w.deadline("run", d)
		if err != nil {
			return err
		}
		w.Sim.Run(end)
		w.printf("t = %.3fs\n", w.Sim.Now().Seconds())
	case "ping":
		if len(f) != 5 {
			return fmt.Errorf("usage: ping <src> <dst> <size> <count>")
		}
		src, dst, err := w.twoHosts(f[1], f[2])
		if err != nil {
			return err
		}
		size, err := intArg("size", f[3], 0, maxPingSize)
		if err != nil {
			return err
		}
		count, err := intArg("count", f[4], 1, math.MaxInt32)
		if err != nil {
			return err
		}
		end, err := w.deadline("ping", netsim.Duration(count+5)*netsim.Second)
		if err != nil {
			return err
		}
		p := workload.NewPinger(src, dst.IP, int(size), int(count))
		p.Run(end)
		w.printf("ping %s -> %s size=%d: %d/%d replies, mean RTT %.3f ms\n",
			f[1], f[2], size, p.Completed(), count, float64(p.MeanRTT())/1e6)
	case "ttcp":
		if len(f) != 5 {
			return fmt.Errorf("usage: ttcp <src> <dst> <write> <total>")
		}
		src, dst, err := w.twoHosts(f[1], f[2])
		if err != nil {
			return err
		}
		write, err := intArg("write", f[3], 1, math.MaxInt32)
		if err != nil {
			return err
		}
		total, err := intArg("total", f[4], 0, math.MaxInt64)
		if err != nil {
			return err
		}
		end, err := w.deadline("ttcp", 600*netsim.Second)
		if err != nil {
			return err
		}
		tr := workload.NewTtcp(src, dst, int(write), total)
		tr.Run(end)
		w.printf("ttcp %s -> %s write=%d total=%d: %.1f Mb/s, %.0f frames/s, done=%v\n",
			f[1], f[2], write, total, tr.ThroughputMbps(), tr.FramesPerSecond(), tr.Done())
	case "inject-ieee":
		if len(f) != 2 {
			return fmt.Errorf("usage: inject-ieee <segment>")
		}
		seg, ok := w.Segments[f[1]]
		if !ok {
			return fmt.Errorf("unknown segment %s", f[1])
		}
		end, err := w.deadline("inject-ieee", 100*netsim.Millisecond)
		if err != nil {
			return err
		}
		nic := netsim.NewNIC(w.Sim, "injector", ethernet.MAC{2, 0, 0, 0, 0xff, 0xfe})
		seg.Attach(nic)
		w.Sim.Schedule(w.Sim.Now()+1, func() { nic.Send(stp.RootClaimFrame(nic.MAC)) })
		w.Sim.Run(end)
	case "query":
		if len(f) != 3 {
			return fmt.Errorf("usage: query <bridge> <func>")
		}
		v, err := w.queryFunc(f[1], f[2])
		if err != nil {
			return err
		}
		w.printf("%s %s = %s\n", f[1], f[2], v)
	case "expect":
		if len(f) != 4 {
			return fmt.Errorf("usage: expect <bridge> <func> <value>")
		}
		v, err := w.queryFunc(f[1], f[2])
		if err != nil {
			return err
		}
		if v != f[3] {
			return fmt.Errorf("expect failed: %s %s = %q, want %q", f[1], f[2], v, f[3])
		}
		w.printf("expect %s %s = %s: ok\n", f[1], f[2], f[3])
	case "switchlets":
		if len(f) != 2 {
			return fmt.Errorf("usage: switchlets <bridge>")
		}
		b, ok := w.Bridges[f[1]]
		if !ok {
			return fmt.Errorf("unknown bridge %s", f[1])
		}
		for _, inst := range b.Manager().List() {
			w.printf("%s %s caps=[%s] installed-at=%.3fs\n",
				f[1], inst.Manifest.Ref(),
				strings.Join(inst.Manifest.CapabilityNames(), ","), inst.At.Seconds())
		}
	case "upgrade":
		if len(f) != 4 {
			return fmt.Errorf("usage: upgrade <bridge> <old-module> <builtin>")
		}
		b, ok := w.Bridges[f[1]]
		if !ok {
			return fmt.Errorf("unknown bridge %s", f[1])
		}
		next, err := resolveManifest(f[3])
		if err != nil {
			return err
		}
		u, err := b.Manager().Upgrade(f[2], next, bridge.DefaultUpgradeOptions())
		if err != nil {
			return err
		}
		w.printf("upgrade %s: %s -> %s state=%v captured=%q\n",
			f[1], u.Old().Manifest.Ref(), u.New().Manifest.Ref(), u.State(), u.Captured)
	case "verify":
		if len(f) != 2 {
			return fmt.Errorf("usage: verify <builtin|file.swo>")
		}
		return w.verifySwitchlet(f[1])
	case "stats":
		if len(f) > 2 {
			return fmt.Errorf("usage: stats [bridge]")
		}
		if len(f) == 2 {
			return w.bridgeStats(f[1])
		}
		for _, name := range sortedNames(w.Bridges) {
			s := w.Bridges[name].Stats
			w.printf("%s: in=%d delivered=%d sent=%d suppressed=%d/%d drops=%d traps=%d vm=%v kernel=%v\n",
				name, s.FramesIn, s.FramesDelivered, s.FramesSent,
				s.InputSuppressed, s.OutputBlocked, s.NoHandlerDrops, s.HandlerTraps,
				s.VMTime, s.KernelTime)
		}
		for _, name := range sortedNames(w.Hosts) {
			h := w.Hosts[name]
			w.printf("%s: out=%d in=%d echoes-answered=%d\n", name, h.FramesOut, h.FramesIn, h.EchoRequests)
		}
	case "fail", "heal":
		if len(f) != 2 {
			return fmt.Errorf("usage: %s <segment|bridge>", f[0])
		}
		return w.setFault(f[1], f[0] == "fail")
	case "faults":
		if len(f) != 1 {
			return fmt.Errorf("usage: faults")
		}
		w.listFaults()
	case "trace":
		if len(f) != 2 {
			return fmt.Errorf("usage: trace on|off|dump")
		}
		switch f[1] {
		case "on":
			if w.tracer == nil {
				w.tracer = tracing.New(tracing.GetDefaultConfig())
				w.Sim.OnQuiesce(w.tracer.Flush)
			}
			w.Sim.SetTraceEngine(w.tracer.Engine(0))
			w.printf("tracing on\n")
		case "off":
			w.Sim.SetTraceEngine(nil)
			w.printf("tracing off\n")
		case "dump":
			if w.tracer == nil {
				return fmt.Errorf("trace dump: tracing was never on")
			}
			w.tracer.Flush()
			w.tracer.RenderTranscript(w.Out)
			w.tracer.RenderDumps(w.Out)
		default:
			return fmt.Errorf("usage: trace on|off|dump")
		}
	case "logs":
		w.logsOn = true
	default:
		return fmt.Errorf("unknown command %q", f[0])
	}
	return nil
}

// maxNodes is how many bridges and hosts a world holds: each takes the
// next value of a one-byte address counter, and 0 and 255 stay unused.
const maxNodes = 254

// takeNode claims the next node address for a bridge or host.
func (w *World) takeNode() error {
	if w.nextMAC == maxNodes {
		return fmt.Errorf("node budget: a world holds at most %d bridges and hosts", maxNodes)
	}
	w.nextMAC++
	return nil
}

// maxPingSize is the largest ICMP echo payload an IPv4 datagram carries.
const maxPingSize = 65535 - 20 - 8

// intArg parses a decimal command argument and holds it to [lo, hi]; the
// error names the argument.
func intArg(name, s string, lo, hi int64) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("%s %d out of range [%d, %d]", name, v, lo, hi)
	}
	return v, nil
}

// setFault cuts or restores one named element: a segment's shared medium
// (fail = every frame on it dies, as if the cable were pulled) or a whole
// bridge (fail = crash: queued work dropped, learning tables lost; heal =
// cold restart through the Manager's snapshot). Managers of bridges on a
// cut segment are notified so a validating upgrade rolls back rather than
// commits across the fault.
func (w *World) setFault(name string, down bool) error {
	if seg, ok := w.Segments[name]; ok {
		if seg.Down() == down {
			w.printf("segment %s already %s\n", name, downWord(down))
			return nil
		}
		seg.SetDown(down)
		if down {
			for _, bn := range sortedNames(w.Bridges) {
				w.Bridges[bn].NoteSegmentDown(seg)
			}
		}
		w.printf("segment %s %s\n", name, downWord(down))
		return nil
	}
	if b, ok := w.Bridges[name]; ok {
		if down {
			if b.Crashed() {
				w.printf("bridge %s already crashed\n", name)
				return nil
			}
			b.Crash()
			w.printf("bridge %s crashed\n", name)
			return nil
		}
		if !b.Crashed() {
			w.printf("bridge %s already running\n", name)
			return nil
		}
		if err := b.Restart(); err != nil {
			return fmt.Errorf("restart %s: %w", name, err)
		}
		w.printf("bridge %s restarted\n", name)
		return nil
	}
	return fmt.Errorf("unknown segment or bridge %s", name)
}

func downWord(down bool) string {
	if down {
		return "down"
	}
	return "up"
}

// listFaults prints the fault state of every element, sorted by name so
// scripts can assert on the output.
func (w *World) listFaults() {
	for _, n := range sortedNames(w.Segments) {
		seg := w.Segments[n]
		w.printf("segment %s: %s dropped=%d corrupted=%d duplicated=%d\n",
			n, downWord(seg.Down()), seg.FaultDrops, seg.FaultCorrupts, seg.FaultDups)
	}
	for _, n := range sortedNames(w.Bridges) {
		b := w.Bridges[n]
		state := "running"
		if b.Crashed() {
			state = "crashed"
		}
		w.printf("bridge %s: %s crashes=%d restarts=%d txq-drops=%d\n",
			n, state, b.Stats.Crashes, b.Stats.Restarts, b.TxQueueDrops())
	}
}

// sortedNames lists a name-keyed node table in name order, so scripts can
// assert on whatever is printed from it.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m { //ab:mapiter-ok keys are sorted before use
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// deadline is the instant a command that runs the simulation for d
// runs to, or an error naming the command when that instant would lie
// past the end of virtual time.
func (w *World) deadline(cmd string, d netsim.Duration) (netsim.Time, error) {
	now := w.Sim.Now()
	if d > netsim.Duration(math.MaxInt64-now) {
		return 0, fmt.Errorf("%s: %v from t = %.3fs runs past the end of virtual time", cmd, d, now.Seconds())
	}
	return now.Add(d), nil
}

// bridgeStats prints one bridge's live counters through the metrics
// view: the same instruments a scrape endpoint would serve (frames,
// drops, VM/kernel time, lifecycle counts, installed switchlet
// versions), published on the spot and rendered one series per line.
func (w *World) bridgeStats(name string) error {
	b, ok := w.Bridges[name]
	if !ok {
		return fmt.Errorf("unknown bridge %s", name)
	}
	reg := metrics.NewRegistry("script")
	b.Instrument(reg, metrics.Labels{{Name: "bridge", Value: name}})
	// The console is between commands: the simulation is quiescent, so
	// an explicit publish is licensed.
	reg.Publish()
	snap := reg.Snapshot()
	for _, p := range snap.Series {
		w.printf("%s%s %s\n", p.Name, p.Labels, metrics.FormatValue(p.Value))
	}
	return nil
}

func (w *World) queryFunc(bridgeName, funcName string) (string, error) {
	b, ok := w.Bridges[bridgeName]
	if !ok {
		return "", fmt.Errorf("unknown bridge %s", bridgeName)
	}
	v, err := b.Manager().Query(funcName, "")
	if err != nil {
		return "", fmt.Errorf("%s: %w", bridgeName, err)
	}
	return v, nil
}

func (w *World) twoHosts(a, b string) (*workload.Host, *workload.Host, error) {
	src, ok := w.Hosts[a]
	if !ok {
		return nil, nil, fmt.Errorf("unknown host %s", a)
	}
	dst, ok := w.Hosts[b]
	if !ok {
		return nil, nil, fmt.Errorf("unknown host %s", b)
	}
	return src, dst, nil
}

// resolveManifest turns a script switchlet argument — a builtin key or a
// .swo file path — into an installable manifest. File objects are
// trusted with the full capability set, like any operator-supplied code;
// the Manager adopts the module name the object itself carries.
func resolveManifest(what string) (env.Manifest, error) {
	if strings.HasSuffix(what, ".swo") {
		data, err := os.ReadFile(what)
		if err != nil {
			return env.Manifest{}, err
		}
		return env.Manifest{
			Capabilities: env.AllCapabilities(),
			Object:       data,
		}, nil
	}
	m, ok := switchlets.BuiltinManifest(what)
	if !ok {
		return env.Manifest{}, fmt.Errorf("unknown switchlet %q", what)
	}
	return m, nil
}

// verifySwitchlet runs the full static verification a node performs at
// install time — the bytecode proofs plus capability flow against the
// manifest's grant — and prints the verdict without installing anything.
// Builtins compile against a fresh node's module environment, exactly the
// environment any bridge in this world offers.
func (w *World) verifySwitchlet(what string) error {
	m, err := resolveManifest(what)
	if err != nil {
		return err
	}
	var obj *vm.Object
	if len(m.Object) > 0 {
		obj, err = vm.DecodeObject(m.Object)
	} else {
		node := bridge.New(netsim.New(), "verify-env", 1, 2, w.Cost)
		obj, _, err = vm.Compile(m.Name, m.Source, node.Loader.SigEnv())
	}
	if err != nil {
		return fmt.Errorf("verify %s: %w", what, err)
	}
	rep, err := verify.Manifest(obj, m.Name, m.Capabilities)
	if err != nil {
		return fmt.Errorf("verify %s: %w", what, err)
	}
	w.printf("verify %s: ok module=%s chunks=%d max-stack=%d reachable=[%s]\n",
		what, rep.Module, rep.Chunks, rep.MaxDepth, strings.Join(rep.ReachableModules, ","))
	for _, warn := range rep.Warnings() {
		w.printf("  warning: %s\n", warn)
	}
	return nil
}

func (w *World) loadSwitchlet(b *bridge.Bridge, what string) error {
	m, err := resolveManifest(what)
	if err != nil {
		return err
	}
	_, err = b.Manager().Install(m)
	return err
}

func (w *World) switchletBytes(b *bridge.Bridge, what string) ([]byte, string, error) {
	m, err := resolveManifest(what)
	if err != nil {
		return nil, "", err
	}
	if len(m.Object) > 0 {
		return m.Object, what, nil
	}
	enc, err := b.Manager().Compile(m)
	if err != nil {
		return nil, "", err
	}
	return enc, strings.ToLower(m.Name) + ".swo", nil
}
