// Cross-tier identity pin: the code stream a bridge runs its switchlets
// from (-O0 wire bytecode, or the quickened default) is a host-side
// acceleration only — every scenario must render byte-identical
// virtual-time output either way. Combined with golden_test.go (which pins
// the default) and sharded_test.go: all goldens byte-identical at -O0 and
// the default, and at shards 1/2/4.
package scenario_test

import (
	"testing"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/experiments"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/scenario"
)

// TestOptLevelSweepMatchesGoldens reruns the entire list at -O0 and
// requires byte-identical rendered output against the serial run (which
// executes at the quickened default, bridge.DefaultOptLevel). A divergence
// means the optimizer changed observable behaviour — the one thing it is
// not allowed to do.
func TestOptLevelSweepMatchesGoldens(t *testing.T) {
	requireMatchesSerial(t, "-O0", func() []scenario.Result {
		defer func(old int) { bridge.DefaultOptLevel = old }(bridge.DefaultOptLevel)
		bridge.DefaultOptLevel = 0
		return scenario.RunAll(experiments.Scenarios(), netsim.DefaultCostModel(), 1)
	})
}
