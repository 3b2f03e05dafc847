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
// encoded object and its import list. Safe under concurrent scenario
// runs and shard goroutines.
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
	// verified separates entries produced under the static-verification
	// regime: an entry whose shared obj earned its verified bit must never
	// be answered to (or overwritten by) a caller that skipped the proof,
	// and vice versa.
	verified bool
}

type objectCacheEntry struct {
	name    string
	enc     []byte
	imports []string
	// obj is the compiler's decoded form, already verified and quickened.
	// Installing links this shared object directly, skipping a decode,
	// verification and quickening per install. Object and its chunks are
	// immutable after optimization; per-bridge state (globals, inline
	// caches) lives in each LinkedModule.
	obj *vm.Object
	// verified records that vm.VerifyObject accepted obj before it was
	// cached; decoded() refuses to share the object without it.
	verified bool
}

// decoded returns the shared, verifier-passed object, or — if the entry
// somehow holds an unverified one — a fresh decode of the wire bytes, which
// the loader will verify and quicken itself. Only verifier-passed objects
// are shared between bridges.
func (e *objectCacheEntry) decoded() (*vm.Object, error) {
	if e.verified && e.obj != nil && e.obj.Verified() {
		return e.obj, nil
	}
	return vm.DecodeObject(e.enc)
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
// The returned entry is shared: callers must treat enc and imports as
// immutable.
func compileCached(name, source, version string, se *vm.SigEnv, optLevel int) (*objectCacheEntry, error) {
	key := objectCacheKey{name: name, version: version, srcSum: sha256.Sum256([]byte(source)), env: envFingerprint(se), quickened: optLevel > 0, verified: true}
	if v, ok := objectCache.Load(key); ok {
		objectHits.Add(1)
		return v.(*objectCacheEntry), nil
	}
	obj, _, err := vm.CompileLevel(name, source, se, optLevel)
	if err != nil {
		return nil, err
	}
	imports := make([]string, 0, len(obj.Imports))
	for _, ref := range obj.Imports {
		imports = append(imports, ref.Module)
	}
	// CompileLevel ran the static verifier (it refuses to emit otherwise),
	// so the entry records the earned bit rather than asserting it.
	ent := &objectCacheEntry{name: name, enc: obj.Encode(), imports: imports, obj: obj, verified: obj.Verified()}
	objectMisses.Add(1)
	actual, _ := objectCache.LoadOrStore(key, ent)
	return actual.(*objectCacheEntry), nil
}
