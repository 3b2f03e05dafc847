// Package scenario is the runner for named, self-describing experiment
// scenarios. A scenario is a deterministic function of a cost model: it
// builds its own simulation (typically via internal/topo), drives it, and
// returns a report.Table carrying both the rendered rows and the
// expectations the run stated about them. Because every scenario owns a
// single-threaded simulation and shares no mutable state with any other,
// N scenarios can run concurrently across cores while each one's
// virtual-time output stays byte-identical — only the wall clock changes.
//
// Every reproduced paper figure/table and every large-scale workload is
// one entry in the list internal/experiments.Scenarios returns;
// cmd/abbench lists, filters and runs it, and the golden tests pin each
// scenario's output fingerprint.
package scenario

import (
	"fmt"
	"hash/fnv"
	"regexp"

	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/report"
)

// RunFunc builds, drives and reports one experiment. It must be a pure
// function of the cost model: fresh simulation, no package-level mutable
// state, deterministic output. It states its invariants (orderings,
// completions, paper bounds) on the values it measured with Table.Expect.
type RunFunc func(cost netsim.CostModel) (*report.Table, error)

// Scenario is one named experiment.
type Scenario struct {
	// Name is short, stable, kebab-case and unique in its list.
	Name string
	// Desc is a one-line self-description (shown by abbench -list).
	Desc string
	// Run produces the scenario's table.
	Run RunFunc
	// Slow marks scenarios skipped by abbench -short (parameter sweeps).
	Slow bool
}

// Match returns the scenarios of scs whose names match the regular
// expression, in list order.
func Match(scs []*Scenario, pattern string) ([]*Scenario, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("scenario: bad pattern %q: %w", pattern, err)
	}
	var out []*Scenario
	for _, s := range scs {
		if re.MatchString(s.Name) {
			out = append(out, s)
		}
	}
	return out, nil
}

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
