// Package analyzers implements the repo's determinism vet suite: a small,
// dependency-free analysis framework (stdlib go/ast + go/types only — the
// module deliberately has no third-party requirements) and three passes that
// encode the invariants the simulation's reproducibility rests on:
//
//   - nowallclock: the deterministic core (every package that runs under
//     virtual time, listed in deterministicSet) must never read the wall
//     clock or a nondeterministic RNG;
//     virtual time is the only time. Escape hatch: //ab:wallclock-ok with a
//     justification on or above the offending line.
//   - mapiter: Go map iteration order is randomized, so a range over a map
//     inside the deterministic core is a fingerprint hazard unless the site
//     sorts or is annotated //ab:mapiter-ok with a justification.
//   - allocfree: functions annotated //ab:allocfree (hot-path code audited
//     to be allocation-free) may not contain composite literals, append
//     growth, closures, or interface boxing.
//
// cmd/abvet drives the suite over the whole repository; the satellite test
// in this package keeps the repo clean under it.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one reported violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Msg      string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Msg)
}

// Analyzer is one analysis pass.
type Analyzer struct {
	Name string
	Doc  string
	// Marker, when non-empty, is the suppression annotation ("ab:..."):
	// a finding whose line (or the line above it) carries the marker in a
	// comment is dropped.
	Marker string
	Run    func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package's import path; scope checks match on it.
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	pkg *Package
}

// Report records a finding at pos unless the analyzer's suppression marker
// covers that line.
func (p *Pass) Report(pos token.Pos, msg string) {
	position := p.Fset.Position(pos)
	if p.Analyzer.Marker != "" && p.pkg.suppressed(position, p.Analyzer.Marker) {
		return
	}
	p.pkg.findings = append(p.pkg.findings, Finding{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Msg:      msg,
	})
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{NoWallClock, MapIter, AllocFree}
}

// deterministicSet lists the package path suffixes (relative to the module
// root) whose behavior feeds the golden fingerprints or a transcript a
// script asserts on: everything that runs under virtual time and everything
// that prints what it measured. An exact-path match or any nested package
// counts. internal/metrics is deliberately absent: it stamps each publish
// with the wall clock by design, and its map ranges run outside any
// simulation.
var deterministicSet = []string{
	"internal/netsim",
	"internal/vm",
	"internal/bridge",
	"internal/env",
	"internal/switchlets",
	"internal/stp",
	"internal/ethernet",
	"internal/tftp",
	"internal/ipv4",
	"internal/udp",
	"internal/icmp",
	"internal/arp",
	"internal/topo",
	"internal/fault",
	"internal/tracing",
	"internal/baseline",
	"internal/testbed",
	"internal/scenario",
	"internal/script",
	"internal/experiments",
	"internal/report",
	"internal/workload",
}

// InDeterministicSet reports whether importPath is part of the virtual-time
// core the nowallclock and mapiter passes police.
func InDeterministicSet(importPath string) bool {
	for _, suffix := range deterministicSet {
		if strings.HasSuffix(importPath, suffix) {
			return true
		}
		if i := strings.Index(importPath, suffix+"/"); i >= 0 {
			// A nested package (internal/vm/verify) inherits the rule.
			return true
		}
	}
	return false
}

// Run executes the given analyzers over one loaded package and returns the
// surviving findings sorted by position.
func Run(pkg *Package, as []*Analyzer) []Finding {
	pkg.findings = nil
	for _, a := range as {
		a.Run(&Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			pkg:      pkg,
		})
	}
	out := pkg.findings
	pkg.findings = nil
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}
