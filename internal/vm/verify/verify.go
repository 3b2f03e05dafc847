// Package verify layers the manifest capability proof over the core
// bytecode verifier (internal/vm's VerifyObject), producing the whole-object
// static argument the paper makes with Caml's type system: a switchlet is
// accepted only when every proof obligation — control-flow integrity, stack
// discipline, type soundness, capture bounds, and capability coverage of
// every reachable import — holds for its wire code before any VM state for
// the module exists.
//
// A node proves the wire stream only. The compiler and the loader verify
// before they quicken, and VerifyObject caches that verdict, so the
// quickened stream's checks (superinstruction operands, deopt map, step
// weights) run only on an object that arrives already quickened: on a
// node none does, and Report.QuickChecked is false for every installed
// switchlet. swc -verify quickens a fresh decode and proves that stream
// as a separate, offline check.
//
// The split between the two layers is deliberate: the abstract interpreter
// lives in package vm because it speaks raw opcodes, while this package
// speaks manifests (env.Capability) and is what the bridge Manager, swc
// -verify and the script `verify` command call. Failures are typed:
// *vm.VerifyError for a bytecode proof that failed, *env.CapabilityError
// for an import the grant does not cover. Non-fatal findings (granted
// capabilities no reachable import needs, imports no reachable chunk
// reads) are warnings on the Report — recorded, never logged, so the
// deterministic per-bridge logs are untouched.
package verify

import (
	"fmt"

	"github.com/switchware/activebridge/internal/env"
	"github.com/switchware/activebridge/internal/vm"
)

// Report summarizes a successful verification.
type Report struct {
	// Module is the object's module name.
	Module string
	// Chunks is the number of code chunks proven.
	Chunks int
	// MaxDepth is the proven maximum operand-stack depth over all chunks.
	MaxDepth int
	// QuickChecked records that a quickened stream was present and its
	// deopt map, step weights and superinstruction operands were checked.
	QuickChecked bool
	// ReachableModules is the sorted set of imported modules actually
	// readable from the init chunk — the set a grant must dominate.
	ReachableModules []string
	// UnreachableImports lists imported modules no reachable chunk reads:
	// dead link-time dependencies worth trimming.
	UnreachableImports []string
	// UnusedGrants lists granted capabilities that no reachable import
	// requires — over-grants, the least-privilege finding.
	UnusedGrants []env.Capability
}

// Warnings renders the report's non-fatal findings as one line each, in
// deterministic order.
func (r *Report) Warnings() []string {
	var out []string
	for _, c := range r.UnusedGrants {
		out = append(out, fmt.Sprintf("granted capability %v is not required by any reachable import", c))
	}
	for _, m := range r.UnreachableImports {
		out = append(out, fmt.Sprintf("imported module %s is not read by any reachable chunk", m))
	}
	return out
}

// Object runs the core static verification (see internal/vm/static.go) and
// reports the proven facts. The error, when non-nil, is a *vm.VerifyError.
func Object(o *vm.Object) (*Report, error) {
	info, err := vm.VerifyObject(o)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Module:           o.ModName,
		Chunks:           len(o.Chunks),
		MaxDepth:         info.MaxDepth,
		QuickChecked:     info.QuickChecked,
		ReachableModules: append([]string(nil), info.ReachableModules...),
	}
	reach := map[string]bool{}
	for _, m := range info.ReachableModules {
		reach[m] = true
	}
	seen := map[string]bool{}
	for _, im := range o.Imports {
		if !reach[im.Module] && !seen[im.Module] {
			seen[im.Module] = true
			rep.UnreachableImports = append(rep.UnreachableImports, im.Module)
		}
	}
	return rep, nil
}

// Manifest proves o against a capability grant: core verification first,
// then capability flow — every import slot reachable from the init chunk
// must belong to a module the grant covers, and (the strict superset that
// keeps install-time behavior a pure strengthening of the PR 3 link check)
// so must every declared import, reachable or not. name labels the
// rejection; empty means the object's own module name.
func Manifest(o *vm.Object, name string, granted []env.Capability) (*Report, error) {
	rep, err := Object(o)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = o.ModName
	}
	// The static proof: grant coverage of what the object can actually
	// reach. Checked first so the rejection names the live violation.
	if err := env.CheckImports(name, rep.ReachableModules, granted); err != nil {
		return nil, err
	}
	all := make([]string, 0, len(o.Imports))
	for _, im := range o.Imports {
		all = append(all, im.Module)
	}
	if err := env.CheckImports(name, all, granted); err != nil {
		return nil, err
	}
	needed := map[env.Capability]bool{}
	for _, m := range rep.ReachableModules {
		if c, gated := env.UnitCapability(m); gated {
			needed[c] = true
		}
	}
	held := map[env.Capability]bool{}
	for _, c := range granted {
		held[c] = true
	}
	for _, c := range env.AllCapabilities() { // declaration order: deterministic
		if held[c] && !needed[c] {
			rep.UnusedGrants = append(rep.UnusedGrants, c)
		}
	}
	return rep, nil
}
