package bridge

import (
	"crypto/sha256"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/switchware/activebridge/internal/vm"
)

// Process-wide compiled-switchlet object cache. Installing the same
// switchlet on N bridges — 256 learning bridges in the fat-tree
// scenarios — compiles it exactly once; every further install reuses the
// encoded and the decoded object. Safe under concurrent scenario runs and
// shard goroutines.
//
// The key pins everything compilation depends on: the module name, the
// manifest version, the source hash, whether the object is quickened, and
// a fingerprint of the signature environment the source compiles against
// (the visible module set plus the implicit open). Distinct sources under
// one name — the buggy 802.1D variant, instrumented spanning trees — hash
// to distinct entries; identical installs on identically-provisioned nodes
// hit.
type objectCacheKey struct {
	name    string
	version string
	srcSum  [32]byte
	env     string
	// quickened separates the two forms an object is cached in: quickened,
	// or naive bytecode for a loader at OptLevel 0. The two must never be
	// shared — a bridge running -O0 linking a quickened object would
	// silently reintroduce the optimizer it asked to disable.
	quickened bool
}

type objectCacheEntry struct {
	name string
	enc  []byte
	// obj is the compiler's decoded form, verified (CompileLevel emits
	// nothing else) and quickened when the key says so. Every install links
	// this one immutable object; per-bridge state (globals, inline caches)
	// lives in each LinkedModule.
	obj *vm.Object
}

var (
	objectCache              sync.Map // objectCacheKey -> *objectCacheEntry
	objectHits, objectMisses atomic.Uint64
)

// envFingerprint digests the compilation environment: which module
// signatures are visible and what the implicit open is.
func envFingerprint(se *vm.SigEnv) string {
	mods := se.Modules()
	sort.Strings(mods)
	return se.Implicit + "|" + strings.Join(mods, ",")
}

// CompileCacheStats reports cumulative process-wide cache hits and
// misses (for tests and capacity diagnostics).
func CompileCacheStats() (hits, misses uint64) {
	return objectHits.Load(), objectMisses.Load()
}

// compileCached compiles name/source at optLevel against the signature
// environment, reusing a previous identical compilation when available.
// The returned entry is shared: callers must treat enc and obj as
// immutable.
func compileCached(name, source, version string, se *vm.SigEnv, optLevel int) (*objectCacheEntry, error) {
	key := objectCacheKey{name: name, version: version, srcSum: sha256.Sum256([]byte(source)), env: envFingerprint(se), quickened: optLevel > 0}
	if v, ok := objectCache.Load(key); ok {
		objectHits.Add(1)
		return v.(*objectCacheEntry), nil
	}
	obj, _, err := vm.CompileLevel(name, source, se, optLevel)
	if err != nil {
		return nil, err
	}
	ent := &objectCacheEntry{name: name, enc: obj.Encode(), obj: obj}
	objectMisses.Add(1)
	actual, _ := objectCache.LoadOrStore(key, ent)
	return actual.(*objectCacheEntry), nil
}
