package activebridge

import (
	"github.com/switchware/activebridge/internal/fault"
)

// Deterministic fault injection. A FaultPlan attaches chaos to a
// Topology before Build: per-segment and per-bridge-port frame
// impairment models (loss, corruption, duplication, Gilbert-Elliott
// bursts) plus scheduled events (segment cuts, port flaps, bridge
// crashes and restarts) that fire in virtual time. Everything derives
// from the plan's single seed, so a chaotic run is replayable
// byte-for-byte — at any shard count.

// FaultModel is a per-entity frame impairment model: independent
// per-frame probabilities, plus an optional two-state burst chain
// (GoodToBad/BadToGood/BadDrop) for correlated loss.
type FaultModel = fault.Model

// FaultPlan is a seeded chaos description: impairment models per
// segment/bridge plus scheduled fault events. Attach one with
// Topology.FaultPlan before Build.
type FaultPlan = fault.Plan

// NewFaultPlan creates an empty plan. All randomness in the materialized
// net derives deterministically from this seed.
func NewFaultPlan(seed uint64) *FaultPlan { return fault.NewPlan(seed) }

// FaultOp is a scheduled fault event's action.
type FaultOp = fault.Op

// The scheduled fault event kinds.
const (
	// FaultLinkDown takes a whole segment down (a cut cable).
	FaultLinkDown = fault.OpLinkDown
	// FaultLinkUp restores a downed segment.
	FaultLinkUp = fault.OpLinkUp
	// FaultPortDown drops one bridge port's carrier.
	FaultPortDown = fault.OpPortDown
	// FaultPortUp restores one bridge port's carrier.
	FaultPortUp = fault.OpPortUp
	// FaultCrash freezes a bridge: ports dead, queued work dropped.
	FaultCrash = fault.OpCrash
	// FaultRestart cold-restarts a crashed bridge from its Manager's
	// stable-storage snapshot.
	FaultRestart = fault.OpRestart
)

// FaultEvent is one scheduled fault, as recorded in a plan.
type FaultEvent = fault.Event

// DefaultChaosModel returns the mild blanket impairment profile
// (1% loss, 0.2% corruption, 0.2% duplication) abbench's -faults flag
// applies to every segment.
func DefaultChaosModel() FaultModel { return fault.DefaultChaosModel() }

// FaultTotals is the process-wide tally of injected faults: frame
// impairments from every stream plus flap/crash/restart event counts.
type FaultTotals = fault.Totals

// FaultGrandTotals returns the process-wide fault totals.
func FaultGrandTotals() FaultTotals { return fault.GrandTotals() }

// ResetFaultTotals zeroes the process-wide fault totals (test
// isolation).
func ResetFaultTotals() { fault.ResetTotals() }
