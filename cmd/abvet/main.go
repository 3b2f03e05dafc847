// abvet runs the repository's determinism vet suite (tools/analyzers):
// nowallclock, mapiter and allocfree over every package of the module.
//
// Usage:
//
//	go run ./cmd/abvet ./...
//
// It vets the module whose go.mod is nearest at or above the working
// directory. Findings print one per line as file:line:col: analyzer:
// message; the exit status is 1 if any survive their suppression markers.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/switchware/activebridge/tools/analyzers"
)

func main() {
	// Arguments exist for familiarity (`abvet ./...`) but the tool always
	// vets the whole module: the invariants are repo-global.
	root, err := moduleRoot()
	if err != nil {
		fatal("%v", err)
	}
	modPath, pkgs, err := analyzers.ModulePackages(root)
	if err != nil {
		fatal("%v", err)
	}
	loader := analyzers.NewLoader(root, modPath)
	suite := analyzers.All()
	bad := false
	for _, p := range pkgs {
		dir, importPath := p[0], p[1]
		pkg, err := loader.Load(dir, importPath)
		if err != nil {
			fatal("%v", err)
		}
		for _, f := range analyzers.Run(pkg, suite) {
			// Print module-relative paths so output is stable across
			// checkouts.
			if rel, err := filepath.Rel(root, f.Pos.Filename); err == nil {
				f.Pos.Filename = rel
			}
			fmt.Println(f)
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("abvet: no go.mod found above the working directory")
		}
		dir = parent
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "abvet: "+format+"\n", args...)
	os.Exit(1)
}
