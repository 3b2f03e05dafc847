package activebridge

import "github.com/switchware/activebridge/internal/switchlets"

// The bundled switchlet manifests: the paper's programs, ready to
// install. Each call returns a fresh manifest value the caller may
// customize (version, source) before installing.

// DumbSwitchlet is switchlet 1: the programmable buffered repeater —
// every frame floods out every other port.
func DumbSwitchlet() Switchlet { return switchlets.DumbManifest() }

// LearningSwitchlet is switchlet 2: the self-learning bridge, the
// paper's measured system.
func LearningSwitchlet() Switchlet { return switchlets.LearningManifest() }

// SpanningSwitchlet is switchlet 3: the IEEE 802.1D spanning tree — the
// "new" protocol of the transition experiment. It loads dormant when
// another spanning tree protocol is already operating.
func SpanningSwitchlet() Switchlet { return switchlets.SpanningManifest() }

// BuggySpanningSwitchlet is the deliberately broken 802.1D variant
// (inverted root election), for demonstrating automatic rollback.
func BuggySpanningSwitchlet() Switchlet { return switchlets.BuggySpanningManifest() }

// DECSwitchlet is the DEC-style spanning tree — the "old" protocol with
// an incompatible frame format.
func DECSwitchlet() Switchlet { return switchlets.DECManifest() }

// ControlSwitchlet is the §5.4 in-network transition controller. Prefer
// Manager.Upgrade, which provides the same Table 1 machinery as a host
// API; the control switchlet remains for fully in-network transitions
// triggered by observed protocol traffic.
func ControlSwitchlet() Switchlet { return switchlets.ControlManifest() }

// BuiltinSwitchlet resolves a bundled switchlet's administrative key
// ("dumb", "learning", "spanning", "spanbug", "dec", "control").
func BuiltinSwitchlet(key string) (Switchlet, bool) { return switchlets.BuiltinManifest(key) }
