package analyzers

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRepositoryClean runs the whole suite over every package of the module
// — the same sweep cmd/abvet performs — and fails on any finding that
// survives its suppression marker. New wall-clock reads, unsorted map
// iterations in the deterministic core, or allocations in //ab:allocfree
// functions fail `go test` directly.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo type-check is slow; skipped in -short mode")
	}
	root, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	modPath, pkgs, err := ModulePackages(root)
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, modPath)
	for _, p := range pkgs {
		pkg, err := loader.Load(p[0], p[1])
		if err != nil {
			t.Fatalf("load %s: %v", p[1], err)
		}
		for _, f := range Run(pkg, All()) {
			t.Errorf("%s", f)
		}
	}
}

func findModuleRoot() (string, error) {
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
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
