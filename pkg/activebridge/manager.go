package activebridge

import (
	"github.com/switchware/activebridge/internal/bridge"
)

// Manager is the per-bridge switchlet lifecycle surface: Install,
// Query, Upgrade, Rollback, Uninstall. Obtain one with Bridge.Manager().
type Manager = bridge.Manager

// InstalledSwitchlet is the Manager's record of one installed switchlet:
// its manifest and installation time.
type InstalledSwitchlet = bridge.Installed

// Upgrade is one live-upgrade attempt: old and new switchlets
// co-resident, handler ownership handed off atomically in virtual time,
// with validation pending — the paper's §5.4 protocol transition as a
// library value.
type Upgrade = bridge.Upgrade

// UpgradeOptions tunes an upgrade's suppression and validation windows.
// The protocol multicast addresses it guards are the manifests' own
// Lifecycle.ProtoAddr.
type UpgradeOptions = bridge.UpgradeOptions

// DefaultUpgradeOptions returns the paper's Table 1 windows: 30 s
// suppression, validation at 60 s.
func DefaultUpgradeOptions() UpgradeOptions { return bridge.DefaultUpgradeOptions() }

// UpgradeState is the phase of an in-flight or finished upgrade.
type UpgradeState = bridge.UpgradeState

// The upgrade phases.
const (
	// UpgradeValidating: the new switchlet is active and being watched.
	UpgradeValidating = bridge.UpgradeValidating
	// UpgradeCommitted: validation passed; the new switchlet owns the
	// protocol.
	UpgradeCommitted = bridge.UpgradeCommitted
	// UpgradeRolledBack: the node returned to the old switchlet.
	UpgradeRolledBack = bridge.UpgradeRolledBack
)
