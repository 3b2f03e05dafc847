package experiments

import (
	"testing"

	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/scenario"
	"github.com/switchware/activebridge/internal/switchlets"
)

// expectHeld runs one generator and requires every expectation it states
// about its own measurements to hold. The bounds live in the generators.
func expectHeld(t *testing.T, run scenario.RunFunc) {
	t.Helper()
	tbl, err := run(netsim.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Err(); err != nil {
		t.Errorf("%v\n%s", err, tbl)
	}
}

func TestFig9Shape(t *testing.T)                         { expectHeld(t, Fig9PingLatency) }
func TestFig10Shape(t *testing.T)                        { expectHeld(t, Fig10TtcpThroughput) }
func TestFrameRatesShape(t *testing.T)                   { expectHeld(t, FrameRates) }
func TestLatencyDecompositionDominatedByVM(t *testing.T) { expectHeld(t, LatencyDecomposition) }
func TestTable1RowsMatchPaperSequence(t *testing.T)      { expectHeld(t, Table1Transition) }
func TestTable1FallbackRow(t *testing.T)                 { expectHeld(t, Table1Fallback) }
func TestAgilityNumbers(t *testing.T)                    { expectHeld(t, agilityRing) }
func TestNetworkLoadCompletes(t *testing.T)              { expectHeld(t, NetworkLoad) }
func TestScalabilitySaturates(t *testing.T)              { expectHeld(t, Scalability) }

func TestAblationShapes(t *testing.T) {
	expectHeld(t, AblationNativeVsBytecode)
	expectHeld(t, AblationLearning)
	expectHeld(t, AblationKernelCost)
}

func TestTransitionNetQueryUnknown(t *testing.T) {
	tn, err := NewTransitionNet(1, switchlets.SpanningSrc, netsim.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if got := tn.Query(tn.Bridges[0], "no.such.func"); got != "<unregistered>" {
		t.Errorf("Query unknown = %q", got)
	}
}
