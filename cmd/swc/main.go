// swc is the switchlet compiler: it compiles swl source files against the
// active bridge's thinned module environment and emits .swo object files
// ready for loading (from disk or over TFTP).
//
// Usage:
//
//	swc [flags] file.swl            compile to file.swo
//	swc -builtin learning -o l.swo  emit a bundled switchlet
//	swc -d file.swo                 disassemble an object file and its quickened form
//	swc -d -O0 file.swo             ... the wire code only
//	swc -d file.swl                 compile in-process and disassemble
//	swc -sig file.swl               print the inferred export signature
//	swc -env                        list the available module signatures
//	swc -verify file.swl|file.swo   run the load-time static verifier
//	swc -verify -builtin learning   ... on a bundled switchlet
//
// -verify replays the proof a node performs before linking: the wire
// bytecode is decoded and checked (control-flow integrity, stack
// discipline, type soundness, capture bounds). Unless -O0 is given, swc
// then quickens a fresh decode as the loader would and proves the
// quickened stream too — superinstruction operands, deopt source map,
// step weights. A node never makes that second check: it verifies the
// wire stream before quickening and runs the optimizer's output
// unchecked, so its reports say quick-checked=false. Exit status 1 with
// the typed diagnostic on any rejection.
//
// -O0 selects the naive bytecode (the default is the quickened level 1).
// The .swo wire format is identical at either level — quickening is an
// in-memory form the loader derives — so the level only changes what -d
// shows, what -verify proves and what the in-process interpreter would
// run.
//
// The module name defaults to the capitalized base name of the source file.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/vm"
	"github.com/switchware/activebridge/internal/vm/verify"
)

func main() {
	var (
		out     = flag.String("o", "", "output object file (default: source with .swo)")
		modName = flag.String("m", "", "module name (default: capitalized file base name)")
		disasm  = flag.Bool("d", false, "disassemble a .swo object file")
		sigOnly = flag.Bool("sig", false, "type check and print the export signature only")
		envList = flag.Bool("env", false, "list the node environment's module signatures")
		builtin = flag.String("builtin", "", "emit a bundled switchlet: dumb|learning|spanning|dec|control|spanbug")
		o0      = flag.Bool("O0", false, "compile/disassemble/verify the naive bytecode only (default: also the quickened form; wire bytes are identical)")
		verifyF = flag.Bool("verify", false, "run the load-time static verifier on a source, object file or builtin")
	)
	flag.Parse()
	optLevel := 1
	if *o0 {
		optLevel = 0
	}

	// The compilation environment is exactly what a fresh bridge node
	// offers switchlets.
	node := bridge.New(netsim.New(), "swc-env", 1, 2, netsim.DefaultCostModel())
	env := node.Loader.SigEnv()

	switch {
	case *verifyF:
		var enc []byte
		var target string
		switch {
		case *builtin != "":
			m, ok := switchlets.BuiltinManifest(*builtin)
			if !ok {
				fatal("unknown builtin %q", *builtin)
			}
			obj, _, err := vm.CompileLevel(m.Name, m.Source, env, 0)
			if err != nil {
				fatal("compile %s: %v", m.Name, err)
			}
			enc, target = obj.Encode(), *builtin
		case flag.NArg() == 1 && strings.EqualFold(filepath.Ext(flag.Arg(0)), ".swl"):
			target = flag.Arg(0)
			src, err := os.ReadFile(target)
			if err != nil {
				fatal("%v", err)
			}
			name := *modName
			if name == "" {
				base := strings.TrimSuffix(filepath.Base(target), filepath.Ext(target))
				name = strings.ToUpper(base[:1]) + base[1:]
			}
			obj, _, err := vm.CompileLevel(name, string(src), env, 0)
			if err != nil {
				fatal("%v", err)
			}
			enc = obj.Encode()
		case flag.NArg() == 1:
			target = flag.Arg(0)
			var err error
			enc, err = os.ReadFile(target)
			if err != nil {
				fatal("%v", err)
			}
		default:
			fatal("usage: swc -verify [-O0] file.swl|file.swo (or -builtin <key>)")
		}
		verifyWire(target, enc, optLevel)
		return

	case *envList:
		for _, m := range env.Modules() {
			sig, _ := env.Lookup(m)
			fmt.Print(sig.Canonical())
			fmt.Println()
		}
		return

	case *builtin != "":
		m, ok := switchlets.BuiltinManifest(*builtin)
		if !ok {
			fatal("unknown builtin %q", *builtin)
		}
		obj, sig, err := vm.CompileLevel(m.Name, m.Source, env, optLevel)
		if err != nil {
			fatal("compile %s: %v", m.Name, err)
		}
		dst := *out
		if dst == "" {
			dst = strings.ToLower(m.Name) + ".swo"
		}
		writeObject(dst, obj, sig)
		return

	case *disasm:
		if flag.NArg() != 1 {
			fatal("usage: swc -d [-O0] file.swo|file.swl")
		}
		arg := flag.Arg(0)
		var obj *vm.Object
		if strings.EqualFold(filepath.Ext(arg), ".swl") {
			src, err := os.ReadFile(arg)
			if err != nil {
				fatal("%v", err)
			}
			name := *modName
			if name == "" {
				base := strings.TrimSuffix(filepath.Base(arg), filepath.Ext(arg))
				name = strings.ToUpper(base[:1]) + base[1:]
			}
			obj, _, err = vm.CompileLevel(name, string(src), env, optLevel)
			if err != nil {
				fatal("%v", err)
			}
		} else {
			data, err := os.ReadFile(arg)
			if err != nil {
				fatal("%v", err)
			}
			obj, err = vm.DecodeObject(data)
			if err != nil {
				fatal("decode: %v", err)
			}
			if _, err := vm.VerifyObject(obj); err != nil {
				fmt.Fprintf(os.Stderr, "warning: %v\n", err)
			} else if optLevel > 0 {
				// Quicken exactly as the loader would.
				vm.OptimizeObject(obj, false)
			}
		}
		fmt.Print(vm.Disassemble(obj))
		return
	}

	if flag.NArg() != 1 {
		fatal("usage: swc [flags] file.swl (see -h)")
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	name := *modName
	if name == "" {
		base := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		name = strings.ToUpper(base[:1]) + base[1:]
	}
	obj, sig, err := vm.CompileLevel(name, string(src), env, optLevel)
	if err != nil {
		fatal("%v", err)
	}
	if *sigOnly {
		fmt.Print(sig.Canonical())
		return
	}
	dst := *out
	if dst == "" {
		dst = strings.TrimSuffix(path, filepath.Ext(path)) + ".swo"
	}
	writeObject(dst, obj, sig)
}

// verifyWire replays the load-time proof on the wire bytes: decode and
// verify the wire stream; then, above -O0, quicken a second fresh decode
// as the loader would and verify the quickened stream as well, which a
// node does not do.
func verifyWire(target string, enc []byte, optLevel int) {
	fresh, err := vm.DecodeObject(enc)
	if err != nil {
		fatal("decode %s: %v", target, err)
	}
	rep, err := verify.Object(fresh)
	if err != nil {
		fatal("verify %s: %v", target, err)
	}
	if optLevel > 0 {
		q, err := vm.DecodeObject(enc)
		if err != nil {
			fatal("decode %s: %v", target, err)
		}
		vm.OptimizeObject(q, false)
		if rep, err = verify.Object(q); err != nil {
			fatal("verify %s (quickened): %v", target, err)
		}
	}
	fmt.Printf("verify %s: ok module=%s chunks=%d max-stack=%d quick-checked=%v\n",
		target, rep.Module, rep.Chunks, rep.MaxDepth, rep.QuickChecked)
	if len(rep.ReachableModules) > 0 {
		fmt.Printf("reachable imports: %s\n", strings.Join(rep.ReachableModules, ", "))
	}
	for _, w := range rep.Warnings() {
		fmt.Printf("warning: %s\n", w)
	}
}

func writeObject(dst string, obj *vm.Object, sig *vm.Signature) {
	enc := obj.Encode()
	if err := os.WriteFile(dst, enc, 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %s: %d bytes, %d chunks, %d instructions\n",
		dst, len(enc), len(obj.Chunks), vm.InstrCount(obj))
	fmt.Printf("export digest %x\n", obj.ExportDigest[:])
	fmt.Print(sig.Canonical())
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "swc: "+format+"\n", args...)
	os.Exit(1)
}
