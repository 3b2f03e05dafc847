package bridge

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/vm"
)

// rig is a bridge wired between two observable stations.
type rig struct {
	sim    *netsim.Sim
	b      *Bridge
	n1, n2 *netsim.NIC
	rx1    int
	rx2    int
	last2  []byte // the last frame n2 received
	logs   []string
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{sim: netsim.New()}
	r.b = New(r.sim, "br", 1, 2, netsim.DefaultCostModel())
	r.b.LogSink = func(_ netsim.Time, _, msg string) { r.logs = append(r.logs, msg) }
	lan1 := netsim.NewSegment(r.sim, "lan1")
	lan2 := netsim.NewSegment(r.sim, "lan2")
	r.n1 = netsim.NewNIC(r.sim, "n1", ethernet.MAC{2, 0, 0, 0, 0, 1})
	r.n2 = netsim.NewNIC(r.sim, "n2", ethernet.MAC{2, 0, 0, 0, 0, 2})
	r.n1.Promiscuous = true
	r.n2.Promiscuous = true
	r.n1.SetRecv(func(*netsim.NIC, []byte) { r.rx1++ })
	r.n2.SetRecv(func(_ *netsim.NIC, b []byte) { r.rx2++; r.last2 = b })
	lan1.Attach(r.n1)
	lan1.Attach(r.b.Port(0))
	lan2.Attach(r.n2)
	lan2.Attach(r.b.Port(1))
	return r
}

func (r *rig) sendFrom1(t *testing.T, dst ethernet.MAC, size int) {
	t.Helper()
	fr := ethernet.Frame{Dst: dst, Src: r.n1.MAC, Type: ethernet.TypeTest, Payload: make([]byte, size)}
	raw, err := fr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	r.n1.Send(raw)
}

// compileAndLoad compiles swl source against b's environment and loads
// it raw, bypassing the manifest's capability grant — what the tests of
// the loader and the frame path want, and nothing outside tests does.
func compileAndLoad(b *Bridge, name, src string) error {
	obj, _, err := vm.Compile(name, src, b.Loader.SigEnv())
	if err != nil {
		return err
	}
	return b.LoadObjectBytes(obj.Encode())
}

func (r *rig) load(t *testing.T, name, src string) {
	t.Helper()
	if err := compileAndLoad(r.b, name, src); err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
}

func (r *rig) run(d netsim.Duration) { r.sim.Run(r.sim.Now().Add(d)) }

func TestHandlerReplacementIsLive(t *testing.T) {
	r := newRig(t)
	r.load(t, "First", `
let handle pkt inport = Unixnet.send_pkt_out (1 - inport) pkt
let _ = Bridge.set_handler handle`)
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 64) })
	r.run(50 * netsim.Millisecond)
	if r.rx2 != 1 {
		t.Fatalf("rx2 = %d", r.rx2)
	}
	// Replace the data path: the new module's handler drops everything.
	r.load(t, "Second", `
let handle pkt inport = ignore pkt; ignore inport
let _ = Bridge.set_handler handle`)
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 64) })
	r.run(50 * netsim.Millisecond)
	if r.rx2 != 1 {
		t.Errorf("handler replacement not effective: rx2 = %d", r.rx2)
	}
}

func TestTrapDropsFrameButNodeSurvives(t *testing.T) {
	r := newRig(t)
	r.load(t, "Crashy", `
let n = ref 0
let handle pkt inport =
  n := !n + 1;
  if !n = 1 then raise "synthetic failure"
  else Unixnet.send_pkt_out (1 - inport) pkt
let _ = Bridge.set_handler handle`)
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 64) })
	r.run(50 * netsim.Millisecond)
	if r.rx2 != 0 {
		t.Errorf("trapped handler's sends must be dropped, rx2 = %d", r.rx2)
	}
	if r.b.Stats.HandlerTraps != 1 {
		t.Errorf("traps = %d", r.b.Stats.HandlerTraps)
	}
	// Second frame forwards fine.
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 64) })
	r.run(50 * netsim.Millisecond)
	if r.rx2 != 1 {
		t.Errorf("node did not survive the trap, rx2 = %d", r.rx2)
	}
	found := false
	for _, l := range r.logs {
		if strings.Contains(l, "synthetic failure") {
			found = true
		}
	}
	if !found {
		t.Error("trap not logged")
	}
}

func TestInfiniteLoopSwitchletIsStopped(t *testing.T) {
	r := newRig(t)
	r.load(t, "Spin", `
let rec spin n = spin (n + 1)
let handle pkt inport = ignore (spin 0)
let _ = Bridge.set_handler handle`)
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 64) })
	r.run(netsim.Second)
	if r.b.Stats.HandlerTraps != 1 {
		t.Errorf("fuel exhaustion should trap: traps = %d", r.b.Stats.HandlerTraps)
	}
}

func TestDstHandlerFirstBindWins(t *testing.T) {
	r := newRig(t)
	r.load(t, "Claimer", `
let h1 pkt inport = ignore pkt; ignore inport
let _ = Bridge.set_dst_handler "\x01\x80\xc2\x00\x00\x00" h1`)
	// A second claim on the same address must trap at init and fail the
	// load (paper: "the first switchlet to bind to a given port succeeds
	// and all others fail").
	err := compileAndLoad(r.b, "Claimer2", `
let h2 pkt inport = ignore pkt; ignore inport
let _ = Bridge.set_dst_handler "\x01\x80\xc2\x00\x00\x00" h2`)
	if err == nil {
		t.Fatal("second bind should fail")
	}
	if !strings.Contains(err.Error(), "already bound") {
		t.Errorf("err = %v", err)
	}
}

func TestDstHandlerBypassesBlockedPort(t *testing.T) {
	r := newRig(t)
	r.load(t, "Ctl", `
let seen = ref 0
let hctl pkt inport = seen := !seen + 1
let hdata pkt inport = Unixnet.send_pkt_out (1 - inport) pkt
let count s = string_of_int !seen
let _ = Bridge.set_dst_handler "\x01\x80\xc2\x00\x00\x00" hctl
let _ = Bridge.set_handler hdata
let _ = Func.register "ctl.seen" count
let _ = Unixnet.set_port_block 0 true`)
	// Data frame on blocked port 0: suppressed.
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 64) })
	// Control multicast on blocked port 0: still delivered to dst handler.
	r.sim.Schedule(r.sim.Now()+2, func() { r.sendFrom1(t, ethernet.AllBridges, 64) })
	r.run(100 * netsim.Millisecond)
	if r.rx2 != 0 {
		t.Errorf("data frame crossed a blocked port")
	}
	if r.b.Stats.InputSuppressed != 1 {
		t.Errorf("InputSuppressed = %d", r.b.Stats.InputSuppressed)
	}
	fn, _ := r.b.Funcs.Lookup("ctl.seen")
	v, err := r.b.Machine.Invoke(fn, "")
	if err != nil || v != "1" {
		t.Errorf("control frame not delivered on blocked port: %v %v", v, err)
	}
}

func TestOutputBlockingAndCtlBypass(t *testing.T) {
	r := newRig(t)
	r.load(t, "Out", `
let handle pkt inport = Unixnet.send_pkt_out (1 - inport) pkt
let _ = Bridge.set_handler handle
let _ = Unixnet.set_port_block 1 true`)
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 64) })
	r.run(50 * netsim.Millisecond)
	if r.rx2 != 0 {
		t.Errorf("send crossed blocked output port")
	}
	if r.b.Stats.OutputBlocked != 1 {
		t.Errorf("OutputBlocked = %d", r.b.Stats.OutputBlocked)
	}
	// send_ctl_out bypasses the block.
	r.load(t, "Out2", `
let handle2 pkt inport = Unixnet.send_ctl_out (1 - inport) pkt
let _ = Bridge.set_handler handle2`)
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 64) })
	r.run(50 * netsim.Millisecond)
	if r.rx2 != 1 {
		t.Errorf("ctl send should bypass output block, rx2 = %d", r.rx2)
	}
}

func TestTimersFireAndCancel(t *testing.T) {
	r := newRig(t)
	r.load(t, "Timers", `
let fires = ref 0
let tick () = fires := !fires + 1;
  if !fires >= 3 then Bridge.cancel_timer "t"
let count s = string_of_int !fires
let _ = Func.register "timer.fires" count
let _ = Bridge.set_timer "t" 100 tick`)
	r.run(2 * netsim.Second)
	fn, _ := r.b.Funcs.Lookup("timer.fires")
	v, err := r.b.Machine.Invoke(fn, "")
	if err != nil {
		t.Fatal(err)
	}
	if v != "3" {
		t.Errorf("timer fired %v times, want exactly 3 (then cancelled)", v)
	}
}

func TestTimerReplacement(t *testing.T) {
	r := newRig(t)
	r.load(t, "TimerR", `
let a = ref 0
let b = ref 0
let get s = string_of_int !a ^ "," ^ string_of_int !b
let _ = Func.register "tr.get" get
let _ = Bridge.set_timer "x" 100 (fun () -> a := !a + 1)
let _ = Bridge.set_timer "x" 100 (fun () -> b := !b + 1)`)
	r.run(350 * netsim.Millisecond)
	fn, _ := r.b.Funcs.Lookup("tr.get")
	v, _ := r.b.Machine.Invoke(fn, "")
	if v != "0,3" {
		t.Errorf("replaced timer state = %v, want 0,3", v)
	}
}

func TestAfterOneShot(t *testing.T) {
	r := newRig(t)
	r.load(t, "AfterT", `
let fired = ref 0
let get s = string_of_int !fired
let _ = Func.register "after.get" get
let _ = Bridge.after 50 (fun () -> fired := !fired + 1)`)
	r.run(netsim.Second)
	fn, _ := r.b.Funcs.Lookup("after.get")
	v, _ := r.b.Machine.Invoke(fn, "")
	if v != "1" {
		t.Errorf("after fired %v times, want 1", v)
	}
}

func TestSpawnRunsAfterInit(t *testing.T) {
	r := newRig(t)
	r.load(t, "Spawny", `
let state = ref "init"
let get s = !state
let _ = Func.register "spawn.get" get
let _ = Safethread.spawn (fun () -> state := "spawned")
let _ = state := "init done"`)
	r.run(10 * netsim.Millisecond)
	fn, _ := r.b.Funcs.Lookup("spawn.get")
	v, _ := r.b.Machine.Invoke(fn, "")
	if v != "spawned" {
		t.Errorf("spawn order: state = %v", v)
	}
}

func TestMutexAssertsDoubleLock(t *testing.T) {
	r := newRig(t)
	err := compileAndLoad(r.b, "Locky", `
let m = Mutex.create ()
let _ = Mutex.lock m
let _ = Mutex.lock m`)
	if err == nil || !strings.Contains(err.Error(), "already locked") {
		t.Errorf("double lock should trap at load: %v", err)
	}
}

func TestFuncCallBetweenModules(t *testing.T) {
	r := newRig(t)
	r.load(t, "Provider", `
let double s = s ^ s
let _ = Func.register "prov.double" double`)
	r.load(t, "Consumer", `
let use s = Func.call "prov.double" s
let _ = Func.register "cons.use" use`)
	fn, _ := r.b.Funcs.Lookup("cons.use")
	v, err := r.b.Machine.Invoke(fn, "ab")
	if err != nil || v != "abab" {
		t.Errorf("cross-module Func.call = %v, %v", v, err)
	}
}

func TestGettimeofdayAdvances(t *testing.T) {
	r := newRig(t)
	r.load(t, "Clock", `
let t0 = Safeunix.gettimeofday ()
let elapsed s = string_of_int (Safeunix.gettimeofday () - t0)
let _ = Func.register "clock.elapsed" elapsed`)
	r.run(2 * netsim.Second)
	fn, _ := r.b.Funcs.Lookup("clock.elapsed")
	v, _ := r.b.Machine.Invoke(fn, "")
	// ~2 s in microseconds.
	if v != "2000000" {
		t.Errorf("elapsed = %v µs, want 2000000", v)
	}
}

func TestFrameCostChargedToCPU(t *testing.T) {
	r := newRig(t)
	r.load(t, "Fwd", `
let handle pkt inport = Unixnet.send_pkt_out (1 - inport) pkt
let _ = Bridge.set_handler handle`)
	busy0 := r.b.CPU().Busy
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 500) })
	r.run(50 * netsim.Millisecond)
	charged := r.b.CPU().Busy - busy0
	// Kernel in + VM + kernel out for a ~522-byte frame: several hundred µs.
	if charged < 300*netsim.Microsecond || charged > 2*netsim.Millisecond {
		t.Errorf("per-frame CPU charge = %v", charged)
	}
}

func TestTracePathSample(t *testing.T) {
	r := newRig(t)
	r.load(t, "Fwd2", `
let handle pkt inport = Unixnet.send_pkt_out (1 - inport) pkt
let _ = Bridge.set_handler handle`)
	r.b.TracePath = true
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 256) })
	r.run(50 * netsim.Millisecond)
	p := r.b.LastPath
	if p.FrameLen == 0 || p.KernelRecv == 0 || p.Exec == 0 || p.KernelSend == 0 || p.Sends != 1 {
		t.Errorf("path sample incomplete: %+v", p)
	}
}

func TestUnknownPortSendTraps(t *testing.T) {
	r := newRig(t)
	err := compileAndLoad(r.b, "BadPort", `
let _ = Unixnet.send_pkt_out 99 "xx"`)
	if err == nil || !strings.Contains(err.Error(), "no such port") {
		t.Errorf("err = %v", err)
	}
}

func TestSendReturnsTypedErrors(t *testing.T) {
	r := newRig(t)
	if err := r.b.Send(99, "xxxxxxxxxxxxxx", false); !errors.Is(err, ErrNoSuchPort) {
		t.Errorf("out-of-range port: err = %v, want ErrNoSuchPort", err)
	}
	if err := r.b.Send(-1, "xxxxxxxxxxxxxx", false); !errors.Is(err, ErrNoSuchPort) {
		t.Errorf("negative port: err = %v, want ErrNoSuchPort", err)
	}
	huge := strings.Repeat("x", ethernet.MaxFrameLen+1)
	if err := r.b.Send(0, huge, false); !errors.Is(err, ErrFrameTooLong) {
		t.Errorf("oversize frame: err = %v, want ErrFrameTooLong", err)
	}
	if err := r.b.Send(0, "tiny", false); !errors.Is(err, ErrFrameTooShort) {
		t.Errorf("short frame: err = %v, want ErrFrameTooShort", err)
	}
}

func TestDstBindReturnsTypedError(t *testing.T) {
	r := newRig(t)
	target := ethernet.AllBridges
	h := FrameHandler{Name: "first", Native: func([]byte, int) {}}
	if err := r.b.SetDstHandler(target, h); err != nil {
		t.Fatal(err)
	}
	err := r.b.SetDstHandler(target, FrameHandler{Name: "second", Native: func([]byte, int) {}})
	if !errors.Is(err, ErrDstBound) {
		t.Errorf("second bind: err = %v, want ErrDstBound", err)
	}
}

// TestSendRuleNormalizesFrames pins the one send rule Send and SendBytes
// share: a wire-valid frame is queued as-is, from a byte slice or a
// string alike; a bare header+payload is padded and sealed; garbage is
// rejected with the typed sentinel.
func TestSendRuleNormalizesFrames(t *testing.T) {
	r := newRig(t)
	collect := func(send func() error) ([]pendingSend, error) {
		outer := r.b.beginSends()
		err := send()
		return r.b.endSends(outer), err
	}
	fr := ethernet.Frame{Dst: ethernet.Broadcast, Src: ethernet.MAC{2, 0, 0, 0, 0, 1},
		Type: ethernet.TypeTest, Payload: make([]byte, 80)}
	raw, _ := fr.Marshal()
	sends, err := collect(func() error { return r.b.SendBytes(0, raw, false) })
	if err != nil || len(sends) != 1 || &sends[0].data[0] != &raw[0] {
		t.Errorf("SendBytes: valid frame should be queued as-is")
	}
	str := string(raw)
	sends, err = collect(func() error { return r.b.Send(0, str, false) })
	if err != nil || len(sends) != 1 || &sends[0].data[0] != unsafe.StringData(str) {
		t.Errorf("Send: valid frame should be queued as a view of the string")
	}
	// A bare header+payload gets padded and an FCS appended.
	bare := string(raw[:ethernet.HeaderLen+10])
	sends, err = collect(func() error { return r.b.Send(1, bare, true) })
	if err != nil || len(sends) != 1 {
		t.Fatalf("bare frame: sends = %d, err = %v", len(sends), err)
	}
	var check ethernet.Frame
	if err := check.Unmarshal(sends[0].data); err != nil {
		t.Errorf("sealed frame invalid: %v", err)
	}
	if sends[0].port != 1 {
		t.Errorf("sealed frame queued on port %d, want 1", sends[0].port)
	}
	// Garbage is rejected with the typed sentinel by both entry points.
	if _, err := collect(func() error { return r.b.SendBytes(0, []byte{1, 2, 3}, false) }); !errors.Is(err, ErrFrameTooShort) {
		t.Errorf("SendBytes short data: err = %v, want ErrFrameTooShort", err)
	}
	if _, err := collect(func() error { return r.b.Send(0, "", false) }); !errors.Is(err, ErrFrameTooShort) {
		t.Errorf("Send empty string: err = %v, want ErrFrameTooShort", err)
	}
}

func TestLoadedModuleListAndMachine(t *testing.T) {
	r := newRig(t)
	r.load(t, "A", `let x = 1`)
	r.load(t, "B", `let y = A.x + 1`)
	mods := r.b.Loader.Modules()
	if len(mods) != 2 || mods[0] != "A" || mods[1] != "B" {
		t.Errorf("modules = %v", mods)
	}
	lm, _ := r.b.Loader.Module("B")
	v, _ := lm.Global("y")
	if v != int64(2) {
		t.Errorf("cross-module constant = %v", v)
	}
}

func TestVMHandlerReceivesCorrectArgs(t *testing.T) {
	r := newRig(t)
	r.load(t, "Args", `
let last_len = ref 0
let last_port = ref (0 - 1)
let handle pkt inport =
  last_len := String.length pkt;
  last_port := inport
let get s = string_of_int !last_len ^ ":" ^ string_of_int !last_port
let _ = Func.register "args.get" get
let _ = Bridge.set_handler handle`)
	r.sim.Schedule(r.sim.Now()+1, func() { r.sendFrom1(t, r.n2.MAC, 100) })
	r.run(50 * netsim.Millisecond)
	fn, _ := r.b.Funcs.Lookup("args.get")
	v, _ := r.b.Machine.Invoke(fn, "")
	// 14 header + 100 payload + 4 FCS = 118 bytes, arriving on port 0.
	if v != "118:0" {
		t.Errorf("handler args = %v, want 118:0", v)
	}
}

func TestLoadChargesCPU(t *testing.T) {
	r := newRig(t)
	busy0 := r.b.CPU().Busy
	obj, _, err := vm.Compile("Heavy", `
let warm =
  let rec loop i acc = if i = 0 then acc else loop (i - 1) (acc + i) in
  loop 2000 0
`, r.b.Loader.SigEnv())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.b.LoadObjectBytes(obj.Encode()); err != nil {
		t.Fatal(err)
	}
	if r.b.CPU().Busy-busy0 < netsim.Millisecond {
		t.Errorf("module evaluation cost not charged: %v", r.b.CPU().Busy-busy0)
	}
}

// TestSealMatchesMarshal pins what sealing into the node's slab may not
// change: for every bare length from a header alone to a full frame, the
// sealed bytes equal Frame.Marshal's. Minimum-frame padding is zero only
// because slab blocks are fresh and never reused, so the sweep also seals
// a padded frame right after a full-size one in the same block. Last, the
// blocks must keep their 2 KB bound: receivers keep views of these frames.
func TestSealMatchesMarshal(t *testing.T) {
	b := New(netsim.New(), "br", 1, 1, netsim.DefaultCostModel())
	bare := make([]byte, ethernet.HeaderLen+ethernet.MaxPayload)
	for i := range bare {
		bare[i] = byte(i*7 + 1)
	}
	check := func(n int) []byte {
		t.Helper()
		got, err := b.sealFrame(bare[:n])
		if err != nil {
			t.Fatalf("seal %d bytes: %v", n, err)
		}
		f := ethernet.Frame{Type: uint16(bare[12])<<8 | uint16(bare[13]), Payload: bare[ethernet.HeaderLen:n]}
		copy(f.Dst[:], bare[0:6])
		copy(f.Src[:], bare[6:12])
		want, _ := f.Marshal()
		if string(got) != string(want) || cap(got) != len(got) {
			t.Fatalf("seal of %d bytes = %x (cap %d), want %x", n, got, cap(got), want)
		}
		return got
	}
	for n := ethernet.HeaderLen; n <= len(bare); n++ {
		check(n)
	}
	// A full frame either fits what is left of the block or opens a new
	// one; either way the second try is followed in its block by the
	// padded frame.
	adjacent := false
	for i := 0; i < 2 && !adjacent; i++ {
		full := check(len(bare))
		small := check(ethernet.HeaderLen)
		adjacent = unsafe.Add(unsafe.Pointer(&full[0]), len(full)) == unsafe.Pointer(&small[0])
	}
	if !adjacent {
		t.Fatal("a padded frame never followed a full-size one in the same slab block")
	}
	// The node's blocks stay at sealBlock, whatever it has sealed: no two
	// full-size frames ever share one.
	for i := 0; i < 64; i++ {
		a, c := check(len(bare)), check(len(bare))
		if unsafe.Add(unsafe.Pointer(&a[0]), len(a)) == unsafe.Pointer(&c[0]) {
			t.Fatal("two full-size frames share a slab block: the node's blocks grew past sealBlock")
		}
	}
	if _, err := b.sealFrame(bare[:ethernet.HeaderLen-1]); !errors.Is(err, ErrFrameTooShort) {
		t.Fatalf("seal of a short header: err = %v, want ErrFrameTooShort", err)
	}
}
