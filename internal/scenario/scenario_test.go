package scenario

import (
	"fmt"
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/report"
)

// fakeTable builds a deterministic table from a name.
func fakeTable(name string) *report.Table {
	t := &report.Table{Title: name, Header: []string{"k", "v"}}
	t.AddRow("name", name)
	return t
}

func fakeRun(name string) RunFunc {
	return func(netsim.CostModel) (*report.Table, error) { return fakeTable(name), nil }
}

func TestRegistryOrderAndLookup(t *testing.T) {
	r := NewRegistry()
	r.Register("b-second", "2", fakeRun("b"))
	r.Register("a-first", "1", fakeRun("a"))
	all := r.All()
	if len(all) != 2 || all[0].Name != "b-second" || all[1].Name != "a-first" {
		t.Fatalf("All() not in registration order: %v", all)
	}
	if _, ok := r.Lookup("a-first"); !ok {
		t.Fatal("Lookup failed")
	}
	names := r.Names()
	if names[0] != "a-first" || names[1] != "b-second" {
		t.Fatalf("Names() not sorted: %v", names)
	}
	got, err := r.Match("^a-")
	if err != nil || len(got) != 1 || got[0].Name != "a-first" {
		t.Fatalf("Match = %v, %v", got, err)
	}
	if _, err := r.Match("("); err == nil {
		t.Fatal("want error for bad pattern")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Register("dup", "", fakeRun("dup"))
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on duplicate registration")
		}
	}()
	r.Register("dup", "", fakeRun("dup"))
}

func TestRunAllOrderAndFingerprints(t *testing.T) {
	var scs []*Scenario
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("s%02d", i)
		scs = append(scs, &Scenario{Name: name, Run: fakeRun(name)})
	}
	serial := RunAll(scs, netsim.DefaultCostModel(), 1)
	parallel := RunAll(scs, netsim.DefaultCostModel(), 8)
	for i := range scs {
		if serial[i].Name != scs[i].Name || parallel[i].Name != scs[i].Name {
			t.Fatalf("result %d out of order: %s / %s", i, serial[i].Name, parallel[i].Name)
		}
		if serial[i].Fingerprint != parallel[i].Fingerprint {
			t.Fatalf("%s: fingerprint differs serial vs parallel", scs[i].Name)
		}
		if serial[i].Fingerprint == "" {
			t.Fatalf("%s: empty fingerprint", scs[i].Name)
		}
	}
	// Distinct outputs must digest distinctly.
	if serial[0].Fingerprint == serial[1].Fingerprint {
		t.Fatal("different tables share a fingerprint")
	}
}

func TestRunEachEmitsInInputOrder(t *testing.T) {
	var scs []*Scenario
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("s%02d", i)
		scs = append(scs, &Scenario{Name: name, Run: fakeRun(name)})
	}
	var emitted []string
	results := RunEach(scs, netsim.DefaultCostModel(), 8, func(r *Result) {
		emitted = append(emitted, r.Name)
	})
	if len(emitted) != len(scs) {
		t.Fatalf("emitted %d of %d results", len(emitted), len(scs))
	}
	for i, name := range emitted {
		if name != scs[i].Name {
			t.Fatalf("emit %d = %s, want %s (input order)", i, name, scs[i].Name)
		}
		if results[i].Name != scs[i].Name {
			t.Fatalf("result %d out of order", i)
		}
	}
}

func TestRunAllRecoversPanic(t *testing.T) {
	scs := []*Scenario{
		{Name: "boom", Run: func(netsim.CostModel) (*report.Table, error) { panic("kaboom") }},
		{Name: "fine", Run: fakeRun("fine")},
	}
	rs := RunAll(scs, netsim.DefaultCostModel(), 2)
	if rs[0].Err == nil || rs[0].OK() {
		t.Fatalf("panicking scenario not reported: %+v", rs[0])
	}
	if !rs[1].OK() {
		t.Fatalf("healthy scenario poisoned by neighbor: %+v", rs[1])
	}
}

func TestRunAllChecks(t *testing.T) {
	scs := []*Scenario{{
		Name: "checked",
		Run: func(netsim.CostModel) (*report.Table, error) {
			tbl := fakeTable("checked")
			tbl.Expect(true, "held")
			tbl.Expect(false, "shape wrong: got %d", 7)
			return tbl, nil
		},
	}}
	r := RunAll(scs, netsim.DefaultCostModel(), 1)[0]
	if r.Err != nil {
		t.Fatalf("an unmet expectation must not be a run error: %v", r.Err)
	}
	if r.CheckErr == nil || !strings.Contains(r.CheckErr.Error(), "shape wrong: got 7") || r.OK() {
		t.Fatalf("unmet expectation not reported: %+v", r)
	}
	if r.Table == nil {
		t.Fatal("table dropped: a disappointed run must still print")
	}
	// Expectations are unrendered: the failure cannot move the digest.
	if want := Fingerprint(fakeTable("checked")); r.Fingerprint == "" || r.Fingerprint != want {
		t.Fatalf("fingerprint %q, want the clean table's %q", r.Fingerprint, want)
	}
}

func TestRunAllEmptyAndAutoParallel(t *testing.T) {
	if rs := RunAll(nil, netsim.DefaultCostModel(), 0); len(rs) != 0 {
		t.Fatalf("RunAll(nil) = %v", rs)
	}
	scs := []*Scenario{{Name: "one", Run: fakeRun("one")}}
	rs := RunAll(scs, netsim.DefaultCostModel(), 0) // auto = one per core
	if len(rs) != 1 || !rs[0].OK() {
		t.Fatalf("auto-parallel run failed: %+v", rs)
	}
}
