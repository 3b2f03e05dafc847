package analyzers

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadSnippet type-checks src as a single-file package under importPath and
// runs the full suite over it.
func loadSnippet(t *testing.T, importPath, src string) []Finding {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := NewLoader(dir, "").Load(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	return Run(pkg, All())
}

const detPath = "github.com/switchware/activebridge/internal/netsim"

func wantFinding(t *testing.T, fs []Finding, analyzer, msgFrag string) {
	t.Helper()
	for _, f := range fs {
		if f.Analyzer == analyzer && strings.Contains(f.Msg, msgFrag) {
			return
		}
	}
	t.Errorf("no %s finding containing %q in %v", analyzer, msgFrag, fs)
}

func wantClean(t *testing.T, fs []Finding) {
	t.Helper()
	if len(fs) != 0 {
		t.Errorf("want no findings, got %v", fs)
	}
}

func TestNoWallClock(t *testing.T) {
	src := `package p
import "time"
func bad() int64 { return time.Now().UnixNano() }
func also() time.Duration { t := time.Now(); return time.Since(t) }
func fine() time.Duration { return 5 * time.Millisecond }
`
	fs := loadSnippet(t, detPath, src)
	wantFinding(t, fs, "nowallclock", "time.Now")
	wantFinding(t, fs, "nowallclock", "time.Since")
	if len(fs) != 3 {
		t.Errorf("want exactly 3 findings, got %v", fs)
	}

	// Outside the deterministic core the same code is legal.
	wantClean(t, loadSnippet(t, "github.com/switchware/activebridge/internal/metrics", src))
}

func TestNoWallClockSuppression(t *testing.T) {
	src := `package p
import "time"
// The wall-time report is operator-facing, not simulation state.
//ab:wallclock-ok
func report() int64 { return time.Now().UnixNano() }
func inline() int64 { return time.Now().UnixNano() } //ab:wallclock-ok measured, never fed back
`
	wantClean(t, loadSnippet(t, detPath, src))
}

func TestNoWallClockRandImport(t *testing.T) {
	src := `package p
import "math/rand"
func roll() int { return rand.Int() }
`
	fs := loadSnippet(t, detPath, src)
	wantFinding(t, fs, "nowallclock", "math/rand")
}

func TestMapIter(t *testing.T) {
	src := `package p
import "sort"
func bad(m map[string]int) int {
	s := 0
	for _, v := range m { // order visible through floats? no - but flagged
		s += v
	}
	return s
}
func sorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //ab:mapiter-ok keys are sorted before use below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
func slices(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}
`
	fs := loadSnippet(t, detPath, src)
	wantFinding(t, fs, "mapiter", "nondeterministic")
	if len(fs) != 1 {
		t.Errorf("want exactly 1 finding (slice range and annotated range are clean), got %v", fs)
	}
	wantClean(t, loadSnippet(t, "github.com/switchware/activebridge/cmd/swc", src))
}

func TestAllocFree(t *testing.T) {
	src := `package p
import "fmt"

type pair struct{ a, b int }

// sum is hot.
//ab:allocfree
func sum(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}

//ab:allocfree
func boxes(n int) string { return fmt.Sprintf("%d", n) }

//ab:allocfree
func lit() pair { return pair{1, 2} }

//ab:allocfree
func grow(xs []int) []int { return append(xs, 1) }

//ab:allocfree
func clo() func() int { x := 1; return func() int { return x } }

// unannotated may do anything.
func free() []pair { return []pair{{1, 2}} }
`
	fs := loadSnippet(t, "github.com/switchware/activebridge/internal/arp", src)
	wantFinding(t, fs, "allocfree", "boxes a int into an interface")
	wantFinding(t, fs, "allocfree", "composite literal")
	wantFinding(t, fs, "allocfree", "appends")
	wantFinding(t, fs, "allocfree", "closure")
	if len(fs) != 4 {
		t.Errorf("want exactly 4 findings, got %v", fs)
	}
}

func TestInDeterministicSet(t *testing.T) {
	cases := map[string]bool{
		"github.com/switchware/activebridge/internal/netsim":    true,
		"github.com/switchware/activebridge/internal/vm":        true,
		"github.com/switchware/activebridge/internal/vm/verify": true,
		"github.com/switchware/activebridge/internal/bridge":    true,
		"github.com/switchware/activebridge/internal/env":       true,
		"github.com/switchware/activebridge/internal/stp":       true,
		"github.com/switchware/activebridge/internal/metrics":   false,
		"github.com/switchware/activebridge/cmd/abvet":          false,
		"github.com/switchware/activebridge/tools/analyzers":    false,
	}
	for path, want := range cases {
		if got := InDeterministicSet(path); got != want {
			t.Errorf("InDeterministicSet(%s) = %v, want %v", path, got, want)
		}
	}
}
