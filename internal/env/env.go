// Package env builds the restricted execution environment the Active
// Bridge offers to switchlets: the paper's eight modules (§5.2.1). Safestd,
// String and Hashtbl are language-level and live in internal/vm; this
// package provides the node-coupled ones:
//
//   - Log        — logging with a host-controlled sink ("allows us to change
//     the method of logging, to a terminal, to disk, or not at all");
//   - Safeunix   — a heavily thinned Unix module: time functions only;
//   - Func       — the registration glue: a hash table of named functions
//     through which newly loaded switchlets announce themselves and through
//     which switchlets call one another;
//   - Unixnet    — the network port interface (paper Figure 4), adapted to
//     the event-driven runtime: output functions plus port state controls;
//   - Bridge     — the demultiplexer registration points (the paper builds
//     these into its first switchlet; the runtime provides them so that
//     handler replacement — dumb -> learning -> spanning tree — is explicit);
//   - Safethread/Mutex — cooperative threading stubs matching the paper's
//     user-mode Caml threads ("no speedup occurs due to our multiprocessor").
//
// Every module is already thinned: nothing capable of reaching the host
// filesystem, process state, or raw simulator exists in any signature. On
// top of the thinning, each module is gated by a Capability
// (capability.go): a switchlet manifest declares the capabilities its code
// needs, and installation rejects objects importing modules outside the
// grant. The Env interface is the union of the narrow per-capability
// views; each unit builder takes only the view its module wraps.
package env

import (
	"fmt"

	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/vm"
)

// Logger is the CapLog view of the node: switchlet log output routed to
// the host-controlled sink.
type Logger interface {
	// Log emits a log message attributed to switchlet code.
	Log(msg string)
}

// Clock is the CapClock view: virtual time, and nothing else of Unix.
type Clock interface {
	// NowMicros is virtual time in microseconds (gettimeofday).
	NowMicros() int64
}

// NetPorts is the CapNet view: the Figure 4 port interface — frame
// output, port state, and the node identity.
type NetPorts interface {
	// NumPorts returns the number of network ports.
	NumPorts() int
	// Send queues an encoded frame for transmission on a port. ctl marks
	// control-plane traffic (BPDUs) which bypasses port blocking, as
	// 802.1D BPDUs must.
	Send(port int, data string, ctl bool) error
	// PortUp reports whether the port exists and its link is up.
	PortUp(port int) bool
	// SetPortBlock suppresses non-control input and output on a port
	// (the spanning tree's suppression access point).
	SetPortBlock(port int, blocked bool)
	// PortBlocked reports the suppression state.
	PortBlocked(port int) bool
	// BridgeID returns this node's bridge identity as a 6-byte MAC string.
	BridgeID() string
}

// Demux is the CapDemux view: the demultiplexer and timer registration
// points through which a switchlet attaches itself to the data path.
type Demux interface {
	// SetHandler installs fn as the default frame handler
	// (fn : string -> int -> unit receiving (frame, input port)).
	SetHandler(fn vm.Value)
	// BindDst registers fn for frames whose destination address equals
	// m, ahead of the default handler. First bind wins.
	BindDst(m ethernet.MAC, fn vm.Value) error
	// UnbindDst removes a destination registration.
	UnbindDst(m ethernet.MAC)
	// SetTimer (re)installs a named periodic timer with period ms.
	SetTimer(name string, periodMs int64, fn vm.Value)
	// CancelTimer removes a named timer.
	CancelTimer(name string)
	// After schedules a one-shot callback delayMs from now.
	After(delayMs int64, fn vm.Value)
}

// Threads is the CapThreads view: cooperative deferral.
type Threads interface {
	// Spawn queues fn to run as soon as the current invocation finishes
	// (the cooperative Safethread.spawn).
	Spawn(fn vm.Value)
}

// Env is the full capability-scoped surface a bridge offers to switchlet
// code: the union of every per-capability view. internal/bridge.Bridge
// implements it. Which parts a given switchlet can actually reach is
// decided per manifest at install time (CheckImports), not by handing a
// narrower Env — the environment modules are shared per node, the grants
// are per switchlet.
type Env interface {
	Logger
	Clock
	NetPorts
	Demux
	Threads
}

// FuncRegistry is the Func module's table: named string -> string
// functions. The paper: "The register routine simply takes a string as a
// key and a function and enters them into a hash table."
type FuncRegistry struct {
	fns  map[string]vm.Value
	keys []string
}

// NewFuncRegistry creates an empty registry.
func NewFuncRegistry() *FuncRegistry { return &FuncRegistry{fns: map[string]vm.Value{}} }

// Register binds name to fn, replacing any previous binding.
func (r *FuncRegistry) Register(name string, fn vm.Value) {
	if _, ok := r.fns[name]; !ok {
		r.keys = append(r.keys, name)
	}
	r.fns[name] = fn
}

// Unregister removes a binding; it reports whether the name was bound.
// The Manager uses it to retire an uninstalled switchlet's exports.
func (r *FuncRegistry) Unregister(name string) bool {
	if _, ok := r.fns[name]; !ok {
		return false
	}
	delete(r.fns, name)
	for i, k := range r.keys {
		if k == name {
			r.keys = append(r.keys[:i], r.keys[i+1:]...)
			break
		}
	}
	return true
}

// Lookup returns the function bound to name.
func (r *FuncRegistry) Lookup(name string) (vm.Value, bool) {
	fn, ok := r.fns[name]
	return fn, ok
}

// Names lists registered names in registration order.
func (r *FuncRegistry) Names() []string { return append([]string(nil), r.keys...) }

// LogUnit builds the Log module; sink receives each message (nil discards).
func LogUnit(h Logger) (*vm.Signature, map[string]vm.Value) {
	return vm.BuildUnit("Log", []vm.BuiltinDef{
		{Name: "log", Type: "string -> unit", Arity: 1,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				s, ok := a[0].(string)
				if !ok {
					return nil, &vm.Trap{Msg: "Log.log: not a string"}
				}
				h.Log(s)
				return vm.Unit{}, nil
			}},
	})
}

// SafeunixUnit builds the heavily thinned Safeunix module: "access to some
// time related functions" and nothing else. gettimeofday caches its last
// boxed result: virtual time is constant within an event, so repeated
// clock reads in one dispatch reuse one boxed int instead of re-boxing a
// large int64 per call (the VM's small-int cache cannot hold timestamps).
func SafeunixUnit(h Clock) (*vm.Signature, map[string]vm.Value) {
	var lastUs int64 = -1
	var lastUsBox vm.Value
	var boxer vm.IntBoxer
	return vm.BuildUnit("Safeunix", []vm.BuiltinDef{
		{Name: "gettimeofday", Type: "unit -> int", Arity: 1,
			Fn: func(_ *vm.Ctx, _ []vm.Value) (vm.Value, error) {
				if now := h.NowMicros(); now != lastUs {
					lastUs, lastUsBox = now, boxer.Box(now)
				}
				return lastUsBox, nil
			}},
		{Name: "time", Type: "unit -> int", Arity: 1,
			Fn: func(_ *vm.Ctx, _ []vm.Value) (vm.Value, error) {
				return boxer.Box(h.NowMicros() / 1_000_000), nil
			}},
	})
}

// FuncUnit builds the Func module over a registry.
func FuncUnit(reg *FuncRegistry) (*vm.Signature, map[string]vm.Value) {
	return vm.BuildUnit("Func", []vm.BuiltinDef{
		{Name: "register", Type: "string -> (string -> string) -> unit", Arity: 2,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				name, ok := a[0].(string)
				if !ok {
					return nil, &vm.Trap{Msg: "Func.register: name not a string"}
				}
				reg.Register(name, a[1])
				return vm.Unit{}, nil
			}},
		{Name: "registered", Type: "string -> bool", Arity: 1,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				name, _ := a[0].(string)
				_, ok := reg.Lookup(name)
				return ok, nil
			}},
		{Name: "call", Type: "string -> string -> string", Arity: 2,
			Fn: func(ctx *vm.Ctx, a []vm.Value) (vm.Value, error) {
				name, _ := a[0].(string)
				fn, ok := reg.Lookup(name)
				if !ok {
					return nil, &vm.Trap{Msg: "Func.call: no function " + name}
				}
				res, err := ctx.Call(fn, a[1])
				if err != nil {
					return nil, err
				}
				if _, ok := res.(string); !ok {
					return nil, &vm.Trap{Msg: "Func.call: " + name + " returned non-string"}
				}
				return res, nil
			}},
	})
}

// UnixnetUnit builds the Unixnet module: the Figure 4 port interface
// adapted to the push-based runtime. Input binding happens through the
// Bridge module's handler registration; output and port control live here.
func UnixnetUnit(h NetPorts) (*vm.Signature, map[string]vm.Value) {
	portArg := func(a []vm.Value, i int) (int, error) {
		p, ok := a[i].(int64)
		if !ok {
			return 0, &vm.Trap{Msg: "Unixnet: port must be an int"}
		}
		if p < 0 || int(p) >= h.NumPorts() {
			return 0, &vm.Trap{Msg: fmt.Sprintf("Unixnet: no such port %d", p)}
		}
		return int(p), nil
	}
	return vm.BuildUnit("Unixnet", []vm.BuiltinDef{
		{Name: "num_ports", Type: "unit -> int", Arity: 1,
			Fn: func(_ *vm.Ctx, _ []vm.Value) (vm.Value, error) {
				return int64(h.NumPorts()), nil
			}},
		{Name: "send_pkt_out", Type: "int -> string -> unit", Arity: 2,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				p, err := portArg(a, 0)
				if err != nil {
					return nil, err
				}
				data, ok := a[1].(string)
				if !ok {
					return nil, &vm.Trap{Msg: "Unixnet.send_pkt_out: not a string"}
				}
				if err := h.Send(p, data, false); err != nil {
					return nil, &vm.Trap{Msg: err.Error()}
				}
				return vm.Unit{}, nil
			}},
		{Name: "send_ctl_out", Type: "int -> string -> unit", Arity: 2,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				p, err := portArg(a, 0)
				if err != nil {
					return nil, err
				}
				data, ok := a[1].(string)
				if !ok {
					return nil, &vm.Trap{Msg: "Unixnet.send_ctl_out: not a string"}
				}
				if err := h.Send(p, data, true); err != nil {
					return nil, &vm.Trap{Msg: err.Error()}
				}
				return vm.Unit{}, nil
			}},
		{Name: "port_up", Type: "int -> bool", Arity: 1,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				p, err := portArg(a, 0)
				if err != nil {
					return nil, err
				}
				return h.PortUp(p), nil
			}},
		{Name: "set_port_block", Type: "int -> bool -> unit", Arity: 2,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				p, err := portArg(a, 0)
				if err != nil {
					return nil, err
				}
				b, ok := a[1].(bool)
				if !ok {
					return nil, &vm.Trap{Msg: "Unixnet.set_port_block: not a bool"}
				}
				h.SetPortBlock(p, b)
				return vm.Unit{}, nil
			}},
		{Name: "port_blocked", Type: "int -> bool", Arity: 1,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				p, err := portArg(a, 0)
				if err != nil {
					return nil, err
				}
				return h.PortBlocked(p), nil
			}},
		{Name: "bridge_id", Type: "unit -> string", Arity: 1,
			Fn: func(_ *vm.Ctx, _ []vm.Value) (vm.Value, error) {
				return h.BridgeID(), nil
			}},
	})
}

// macArg converts a 6-byte swl string to a typed address.
func macArg(v vm.Value, who string) (ethernet.MAC, error) {
	s, ok := v.(string)
	if !ok || len(s) != 6 {
		return ethernet.MAC{}, &vm.Trap{Msg: who + ": MAC must be a 6-byte string"}
	}
	var m ethernet.MAC
	copy(m[:], s)
	return m, nil
}

// BridgeUnit builds the Bridge module: the demultiplexer and timer
// registration points through which switchlets attach themselves.
func BridgeUnit(h Demux) (*vm.Signature, map[string]vm.Value) {
	return vm.BuildUnit("Bridge", []vm.BuiltinDef{
		{Name: "set_handler", Type: "(string -> int -> unit) -> unit", Arity: 1,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				h.SetHandler(a[0])
				return vm.Unit{}, nil
			}},
		{Name: "set_dst_handler", Type: "string -> (string -> int -> unit) -> unit", Arity: 2,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				m, err := macArg(a[0], "Bridge.set_dst_handler")
				if err != nil {
					return nil, err
				}
				if err := h.BindDst(m, a[1]); err != nil {
					return nil, &vm.Trap{Msg: err.Error()}
				}
				return vm.Unit{}, nil
			}},
		{Name: "clear_dst_handler", Type: "string -> unit", Arity: 1,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				m, err := macArg(a[0], "Bridge.clear_dst_handler")
				if err != nil {
					return nil, err
				}
				h.UnbindDst(m)
				return vm.Unit{}, nil
			}},
		{Name: "set_timer", Type: "string -> int -> (unit -> unit) -> unit", Arity: 3,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				name, ok := a[0].(string)
				period, ok2 := a[1].(int64)
				if !ok || !ok2 || period <= 0 {
					return nil, &vm.Trap{Msg: "Bridge.set_timer: bad arguments"}
				}
				h.SetTimer(name, period, a[2])
				return vm.Unit{}, nil
			}},
		{Name: "cancel_timer", Type: "string -> unit", Arity: 1,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				name, _ := a[0].(string)
				h.CancelTimer(name)
				return vm.Unit{}, nil
			}},
		{Name: "after", Type: "int -> (unit -> unit) -> unit", Arity: 2,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				delay, ok := a[0].(int64)
				if !ok || delay < 0 {
					return nil, &vm.Trap{Msg: "Bridge.after: bad delay"}
				}
				h.After(delay, a[1])
				return vm.Unit{}, nil
			}},
	})
}

// SafethreadUnit builds the cooperative threading module. spawn defers a
// thunk to run after the current invocation; yield is a no-op (the
// scheduler is non-preemptive, like the paper's user-mode Caml threads).
func SafethreadUnit(h Threads) (*vm.Signature, map[string]vm.Value) {
	return vm.BuildUnit("Safethread", []vm.BuiltinDef{
		{Name: "spawn", Type: "(unit -> unit) -> unit", Arity: 1,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				h.Spawn(a[0])
				return vm.Unit{}, nil
			}},
		{Name: "yield", Type: "unit -> unit", Arity: 1,
			Fn: func(_ *vm.Ctx, _ []vm.Value) (vm.Value, error) {
				return vm.Unit{}, nil
			}},
	})
}

// MutexUnit builds the Mutex module. In a cooperative single-threaded
// world a mutex is an assertion: double-locking traps, exposing a switchlet
// bug instead of deadlocking the node.
func MutexUnit() (*vm.Signature, map[string]vm.Value) {
	return vm.BuildUnit("Mutex", []vm.BuiltinDef{
		{Name: "create", Type: "unit -> (bool) ref", Arity: 1,
			Fn: func(_ *vm.Ctx, _ []vm.Value) (vm.Value, error) {
				return &vm.Ref{V: false}, nil
			}},
		{Name: "lock", Type: "(bool) ref -> unit", Arity: 1,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				r, ok := a[0].(*vm.Ref)
				if !ok {
					return nil, &vm.Trap{Msg: "Mutex.lock: not a mutex"}
				}
				if locked, _ := r.V.(bool); locked {
					return nil, &vm.Trap{Msg: "Mutex.lock: already locked (cooperative deadlock)"}
				}
				r.V = true
				return vm.Unit{}, nil
			}},
		{Name: "unlock", Type: "(bool) ref -> unit", Arity: 1,
			Fn: func(_ *vm.Ctx, a []vm.Value) (vm.Value, error) {
				r, ok := a[0].(*vm.Ref)
				if !ok {
					return nil, &vm.Trap{Msg: "Mutex.unlock: not a mutex"}
				}
				r.V = false
				return vm.Unit{}, nil
			}},
	})
}

// Install adds the full switchlet environment (beyond the vm standard
// units) to a loader: Log, Safeunix, Func, Unixnet, Bridge, Safethread,
// Mutex. The units are shared per node; per-switchlet access is governed
// by manifest capabilities, checked against each object's imports at
// install time.
func Install(l *vm.Loader, e Env, reg *FuncRegistry) error {
	units := []func() (*vm.Signature, map[string]vm.Value){
		func() (*vm.Signature, map[string]vm.Value) { return LogUnit(e) },
		func() (*vm.Signature, map[string]vm.Value) { return SafeunixUnit(e) },
		func() (*vm.Signature, map[string]vm.Value) { return FuncUnit(reg) },
		func() (*vm.Signature, map[string]vm.Value) { return UnixnetUnit(e) },
		func() (*vm.Signature, map[string]vm.Value) { return BridgeUnit(e) },
		func() (*vm.Signature, map[string]vm.Value) { return SafethreadUnit(e) },
		MutexUnit,
	}
	for _, u := range units {
		sig, vals := u()
		if err := l.AddUnit(sig, vals); err != nil {
			return err
		}
	}
	return nil
}
