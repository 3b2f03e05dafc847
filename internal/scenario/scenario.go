// Package scenario is the registry and runner for named, self-describing
// experiment scenarios. A scenario is a deterministic function of a cost
// model: it builds its own simulation (typically via internal/topo),
// drives it, and returns a report.Table carrying both the rendered rows
// and the expectations the run stated about them. Because every scenario
// owns a single-threaded simulation and shares no mutable state with any
// other, N scenarios can run concurrently across cores while each one's
// virtual-time output stays byte-identical — only the wall clock changes.
//
// Every reproduced paper figure/table and every large-scale workload is
// registered here (internal/experiments.RegisterAll); cmd/abbench lists,
// filters and runs them, and the golden tests pin each scenario's output
// fingerprint.
package scenario

import (
	"fmt"
	"hash/fnv"
	"regexp"
	"sort"
	"sync"

	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/report"
)

// RunFunc builds, drives and reports one experiment. It must be a pure
// function of the cost model: fresh simulation, no package-level mutable
// state, deterministic output. It states its invariants (orderings,
// completions, paper bounds) on the values it measured with Table.Expect.
type RunFunc func(cost netsim.CostModel) (*report.Table, error)

// Scenario is one registered experiment.
type Scenario struct {
	// Name is the registry key: short, stable, kebab-case.
	Name string
	// Desc is a one-line self-description (shown by abbench -list).
	Desc string
	// Run produces the scenario's table.
	Run RunFunc
	// Slow marks scenarios skipped by abbench -short (parameter sweeps).
	Slow bool
}

// Registry holds an ordered set of scenarios. The zero value is ready to
// use; most callers use the package-level Default registry.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*Scenario
	order []*Scenario
}

// NewRegistry creates an empty registry (tests use private instances).
func NewRegistry() *Registry { return &Registry{} }

// Register adds a scenario and returns it (so callers can set Slow).
// Registering an empty name, a nil run function, or a duplicate name is
// a programming bug and panics.
func (r *Registry) Register(name, desc string, run RunFunc) *Scenario {
	if name == "" || run == nil {
		panic("scenario: Register needs a name and a run function")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byKey == nil {
		r.byKey = map[string]*Scenario{}
	}
	if _, dup := r.byKey[name]; dup {
		panic(fmt.Sprintf("scenario: %q registered twice", name))
	}
	s := &Scenario{Name: name, Desc: desc, Run: run}
	r.byKey[name] = s
	r.order = append(r.order, s)
	return s
}

// Lookup finds a scenario by exact name.
func (r *Registry) Lookup(name string) (*Scenario, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byKey[name]
	return s, ok
}

// All returns every scenario in registration order (the order abbench
// prints them, which mirrors the paper's presentation).
func (r *Registry) All() []*Scenario {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Scenario(nil), r.order...)
}

// Names returns the sorted scenario names.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.order))
	for _, s := range r.order {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}

// Match returns the scenarios whose names match the regular expression,
// in registration order.
func (r *Registry) Match(pattern string) ([]*Scenario, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("scenario: bad pattern %q: %w", pattern, err)
	}
	var out []*Scenario
	for _, s := range r.All() {
		if re.MatchString(s.Name) {
			out = append(out, s)
		}
	}
	return out, nil
}

// Default is the process-wide registry experiments register into.
var Default = NewRegistry()

// Register adds a scenario to the Default registry.
func Register(name, desc string, run RunFunc) *Scenario {
	return Default.Register(name, desc, run)
}

// Lookup finds a scenario in the Default registry.
func Lookup(name string) (*Scenario, bool) { return Default.Lookup(name) }

// All lists the Default registry in registration order.
func All() []*Scenario { return Default.All() }

// Match filters the Default registry by a name regexp.
func Match(pattern string) ([]*Scenario, error) { return Default.Match(pattern) }

// Fingerprint is the determinism digest of a rendered table: FNV-1a of
// every byte of the output. Two runs (serial or parallel, any machine)
// must produce the same digest for the same scenario.
func Fingerprint(t *report.Table) string {
	h := fnv.New64a()
	if t != nil {
		_, _ = h.Write([]byte(t.String()))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
