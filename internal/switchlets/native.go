package switchlets

import (
	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
)

// This file provides the native-code learning bridge. The paper's §7.3
// identifies bytecode interpretation as the dominant cost and proposes
// compiling switchlets to native code; NativeLearning is that design
// point, charged at CostModel.NativePerFrame instead of by interpreter
// accounting. The benchmarks use it as the ablation baseline (the
// ablation-native-vs-bytecode scenario). The spanning tree has no native
// twin: it runs only as the swl Spanning and Decspan switchlets, checked
// against stp.Converged.

// NativeLearning is the native self-learning bridge.
type NativeLearning struct {
	b        *bridge.Bridge
	table    map[ethernet.MAC]learnEntry
	AgeLimit netsim.Duration
}

type learnEntry struct {
	port int
	seen netsim.Time
}

// InstallNativeLearning installs a native learning bridge and returns it.
func InstallNativeLearning(b *bridge.Bridge) *NativeLearning {
	nl := &NativeLearning{
		b:        b,
		table:    map[ethernet.MAC]learnEntry{},
		AgeLimit: 300 * netsim.Second,
	}
	b.SetNativeHandler("native-learning", nl.handle)
	return nl
}

func (nl *NativeLearning) handle(data []byte, inPort int) {
	dst, err := ethernet.PeekDst(data)
	if err != nil {
		return
	}
	src, err := ethernet.PeekSrc(data)
	if err != nil {
		return
	}
	now := nl.b.Sim().Now()
	if !src.IsMulticast() {
		nl.table[src] = learnEntry{port: inPort, seen: now}
	}
	if !dst.IsMulticast() {
		if e, ok := nl.table[dst]; ok && now.Sub(e.seen) < nl.AgeLimit {
			if e.port != inPort {
				nl.b.SendBytes(e.port, data, false)
			}
			return
		}
	}
	for i := 0; i < nl.b.NumPorts(); i++ {
		if i != inPort {
			nl.b.SendBytes(i, data, false)
		}
	}
}

// Lookup returns the learned port for a MAC, or -1.
func (nl *NativeLearning) Lookup(m ethernet.MAC) int {
	if e, ok := nl.table[m]; ok {
		return e.port
	}
	return -1
}

// Size returns the number of learned stations.
func (nl *NativeLearning) Size() int { return len(nl.table) }
