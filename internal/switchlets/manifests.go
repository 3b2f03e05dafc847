package switchlets

import (
	"github.com/switchware/activebridge/internal/env"
	"github.com/switchware/activebridge/internal/ethernet"
)

// Manifests for the bundled switchlets. Each names the module, pins a
// version, declares exactly the capabilities its source imports, and
// lists the Func-registry entries and timers it owns — so the Manager
// can install, query, upgrade and uninstall the paper's programs through
// one declarative surface instead of raw source strings.

// DumbManifest describes switchlet 1, the programmable buffered repeater.
func DumbManifest() env.Manifest {
	return env.Manifest{
		Name:         ModDumb,
		Version:      env.Version{Major: 1},
		Capabilities: []env.Capability{env.CapLog, env.CapNet, env.CapDemux},
		OwnsDataPath: true,
		Source:       DumbSrc,
	}
}

// LearningManifest describes switchlet 2, the self-learning bridge.
func LearningManifest() env.Manifest {
	return env.Manifest{
		Name:    ModLearning,
		Version: env.Version{Major: 1},
		Capabilities: []env.Capability{
			env.CapLog, env.CapClock, env.CapFuncs, env.CapNet, env.CapDemux,
		},
		Handlers:     []string{"learning.lookup", "learning.size"},
		OwnsDataPath: true,
		Source:       LearningSrc,
	}
}

// stpCapabilities is the grant both spanning tree protocols need.
func stpCapabilities() []env.Capability {
	return []env.Capability{
		env.CapLog, env.CapClock, env.CapFuncs, env.CapNet, env.CapDemux,
	}
}

// stpLifecycle builds the lifecycle entry points for a spanning tree
// protocol registered under the given prefix ("ieee" or "dec"), with the
// protocol's multicast address declared so upgrades guard it.
func stpLifecycle(prefix string, addr ethernet.MAC) env.Lifecycle {
	return env.Lifecycle{
		Start:     prefix + ".start",
		Stop:      prefix + ".stop",
		Probe:     prefix + ".tree",
		Running:   prefix + ".running",
		ProtoAddr: addr,
	}
}

// SpanningManifest describes switchlet 3, the IEEE 802.1D spanning tree —
// the "new" protocol of the transition experiment.
func SpanningManifest() env.Manifest {
	return env.Manifest{
		Name:         ModSpanning,
		Version:      env.Version{Major: 2},
		Capabilities: stpCapabilities(),
		Timers:       []string{"ieee_hello"},
		Lifecycle:    stpLifecycle("ieee", ethernet.AllBridges),
		Source:       SpanningSrc,
	}
}

// BuggySpanningManifest describes the deliberately broken 802.1D variant
// (inverted root election) used to demonstrate automatic fallback.
func BuggySpanningManifest() env.Manifest {
	m := SpanningManifest()
	m.Version = env.Version{Major: 2, Patch: 1}
	m.Source = BuggySpanningSrc
	return m
}

// SpanningManifestFrom is SpanningManifest with an explicit source — how
// experiments inject instrumented or deliberately broken 802.1D
// implementations while keeping the same module identity.
func SpanningManifestFrom(src string) env.Manifest {
	m := SpanningManifest()
	m.Source = src
	return m
}

// DECManifest describes the DEC-style spanning tree — the "old" protocol
// with an incompatible frame format (paper §5.4).
func DECManifest() env.Manifest {
	return env.Manifest{
		Name:         ModDEC,
		Version:      env.Version{Major: 1},
		Capabilities: stpCapabilities(),
		Timers:       []string{"dec_hello"},
		Lifecycle:    stpLifecycle("dec", ethernet.DECBridges),
		Source:       DECSrc,
	}
}

// ControlManifest describes the §5.4 protocol-transition control
// switchlet implementing Table 1.
func ControlManifest() env.Manifest {
	return env.Manifest{
		Name:         ModControl,
		Version:      env.Version{Major: 1},
		Capabilities: []env.Capability{env.CapLog, env.CapFuncs, env.CapDemux},
		Handlers:     []string{"control.phase", "control.suppressed", "control.dec_tree"},
		Source:       ControlSrc,
	}
}

// Builtins lists every bundled manifest by its administrative key, in
// presentation order: the names the script language and the CLI accept.
func Builtins() []env.Manifest {
	return []env.Manifest{
		DumbManifest(), LearningManifest(), SpanningManifest(),
		BuggySpanningManifest(), DECManifest(), ControlManifest(),
	}
}

// BuiltinManifest resolves a bundled switchlet's administrative key
// ("dumb", "learning", "spanning", "spanbug", "dec", "control").
func BuiltinManifest(key string) (env.Manifest, bool) {
	switch key {
	case "dumb":
		return DumbManifest(), true
	case "learning":
		return LearningManifest(), true
	case "spanning":
		return SpanningManifest(), true
	case "spanbug":
		return BuggySpanningManifest(), true
	case "dec":
		return DECManifest(), true
	case "control":
		return ControlManifest(), true
	}
	return env.Manifest{}, false
}
