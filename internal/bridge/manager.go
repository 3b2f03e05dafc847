package bridge

import (
	"fmt"

	"github.com/switchware/activebridge/internal/env"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/tracing"
	"github.com/switchware/activebridge/internal/vm"
	"github.com/switchware/activebridge/internal/vm/verify"
)

// Manager is the per-bridge switchlet lifecycle surface: manifests in,
// running protocols out. It generalizes the paper's §5.4 control
// switchlet into a library primitive — Install enforces the manifest's
// capability grant against the compiled object's imports, Upgrade runs
// the old and new switchlets co-resident with an atomic handler handoff
// and validation, and a failed validation or a trap during handoff rolls
// the node back to the old code automatically.
//
// The Manager shares the node's single-threaded discipline: all methods
// must be called from the simulation's goroutine (between or during
// events), like every other bridge mutation.
type Manager struct {
	b         *Bridge
	installed map[string]*Installed
	order     []string
	upgrades  []*Upgrade
	lifecycle LifecycleStats
	// crash is the stable-storage snapshot taken by noteCrash, consumed
	// by coldRestart.
	crash *crashState
}

// crashState is what a crashed node's stable storage would hold: the
// manifests the Manager had installed (in order) and which protocols were
// running when the power went out.
type crashState struct {
	manifests []env.Manifest
	running   []string
}

// LifecycleStats counts the Manager's switchlet operations, for the
// metrics plane and operator tooling. All counts are cumulative over
// the bridge's lifetime.
type LifecycleStats struct {
	// Installs counts successful Install calls (including the install
	// half of every Upgrade).
	Installs uint64
	// Uninstalls counts successful Uninstall calls.
	Uninstalls uint64
	// Upgrades counts upgrade attempts that reached the atomic handoff.
	Upgrades uint64
	// Commits counts upgrades whose validation passed.
	Commits uint64
	// Rollbacks counts upgrades that returned to the old switchlet —
	// automatically (trap, mismatch, late old-protocol traffic) or by
	// operator decision.
	Rollbacks uint64
}

// Lifecycle returns the cumulative operation counts.
func (m *Manager) Lifecycle() LifecycleStats { return m.lifecycle }

// Installed is the Manager's record of one installed switchlet.
type Installed struct {
	// Manifest is the manifest the switchlet was installed from.
	Manifest env.Manifest
	// At is the virtual time of installation.
	At netsim.Time
	// Warnings are the non-fatal findings of install-time static
	// verification: granted capabilities no reachable import needs,
	// imported modules no reachable chunk reads. Recorded for operator
	// tooling, never logged — per-bridge logs are deterministic state.
	Warnings []string
}

// Manager returns the bridge's switchlet lifecycle manager, creating it
// on first use.
func (b *Bridge) Manager() *Manager {
	if b.manager == nil {
		b.manager = &Manager{b: b, installed: map[string]*Installed{}}
	}
	return b.manager
}

// Bridge returns the node this manager operates on.
func (m *Manager) Bridge() *Bridge { return m.b }

// compile turns a manifest into a verified, capability-checked encoded
// object without touching the node's namespace. The returned name is the
// module name — sw.Name, or the object's own module name when the
// manifest left Name empty. obj is the decoded form ready for linking:
// for source installs it is the process-wide cached object, verified and
// quickened once and shared across bridges.
//
// Every path runs the full static proof (verify.Manifest) before any VM
// state for the module exists: precompiled objects are rejected with a
// typed *vm.VerifyError if any bytecode obligation fails, and both paths
// must prove the manifest grant covers every reachable import slot. The
// returned report carries the non-fatal findings (unused grants,
// unreachable imports).
func (m *Manager) compile(sw env.Manifest) (enc []byte, name string, obj *vm.Object, rep *verify.Report, err error) {
	if err := sw.Validate(); err != nil {
		return nil, "", nil, nil, err
	}
	if len(sw.Object) > 0 {
		obj, err = vm.DecodeObject(sw.Object)
		if err != nil {
			return nil, "", nil, nil, fmt.Errorf("switchlet %s: %w", sw.Name, err)
		}
		if sw.Name != "" && obj.ModName != sw.Name {
			return nil, "", nil, nil, fmt.Errorf("switchlet %s: object names module %s", sw.Name, obj.ModName)
		}
		name, enc = obj.ModName, sw.Object
	} else {
		// Source installs go through the process-wide object cache:
		// installing the same switchlet on N identically-provisioned
		// bridges compiles once.
		ent, err := compileCached(sw.Name, sw.Source, sw.Version.String(), m.b.Loader.SigEnv(), m.b.Loader.OptLevel)
		if err != nil {
			return nil, "", nil, nil, err
		}
		name, enc = ent.name, ent.enc
		if obj, err = ent.decoded(); err != nil {
			return nil, "", nil, nil, fmt.Errorf("switchlet %s: %w", name, err)
		}
	}
	rep, err = verify.Manifest(obj, name, sw.Capabilities)
	if err != nil {
		return nil, "", nil, nil, err
	}
	return enc, name, obj, rep, nil
}

// Compile compiles a manifest against this node and returns the encoded
// switchlet object, after enforcing the capability grant. Use it to
// produce the bytes for network delivery (the §5.2 TFTP loader) without
// installing locally.
func (m *Manager) Compile(sw env.Manifest) ([]byte, error) {
	enc, _, _, _, err := m.compile(sw)
	return enc, err
}

// Install compiles (or decodes), capability-checks, links and evaluates
// a switchlet on the node, charging the paper's load-time evaluation cost
// to the node CPU. The install is atomic: a validation, capability,
// compile, link or init-trap failure leaves the node unchanged.
func (m *Manager) Install(sw env.Manifest) (*Installed, error) {
	_, name, obj, rep, err := m.compile(sw)
	if err != nil {
		return nil, err
	}
	if _, dup := m.installed[name]; dup {
		return nil, fmt.Errorf("%s: %w", name, ErrAlreadyInstalled)
	}
	if err := m.b.LoadDecodedObject(obj); err != nil {
		return nil, err
	}
	// The loaded-module set changed: inline caches must not carry values
	// across the epoch.
	m.b.Loader.FlushAllICs()
	sw.Name = name
	inst := &Installed{Manifest: sw, At: m.b.sim.Now(), Warnings: rep.Warnings()}
	m.installed[name] = inst
	m.order = append(m.order, name)
	m.lifecycle.Installs++
	return inst, nil
}

// Installed returns the record for an installed switchlet.
func (m *Manager) Installed(name string) (*Installed, bool) {
	inst, ok := m.installed[name]
	return inst, ok
}

// List returns the installed switchlets in installation order.
func (m *Manager) List() []*Installed {
	out := make([]*Installed, 0, len(m.order))
	for _, name := range m.order {
		out = append(out, m.installed[name])
	}
	return out
}

// Query invokes a Func-registry entry point with a string argument and
// returns its result rendered as a string — the administrative
// read-side of every switchlet ("ieee.tree", "control.phase", ...).
func (m *Manager) Query(fn, arg string) (string, error) {
	f, ok := m.b.Funcs.Lookup(fn)
	if !ok {
		return "", fmt.Errorf("%s: %w", fn, ErrNoSuchFunc)
	}
	v, err := m.b.Machine.Invoke(f, arg)
	if err != nil {
		return "", err
	}
	if s, ok := v.(string); ok {
		return s, nil
	}
	return vm.FormatValue(v), nil
}

// Uninstall retires a switchlet: its protocol is stopped if running, its
// declared timers are cancelled, its declared handlers and lifecycle
// entries leave the Func registry, its declared data-path claims
// (OwnsDataPath, DstBindings) are released, and its module leaves the
// link namespace. As in the paper, uninstalling is not revocation —
// values the switchlet already handed to other switchlets remain
// reachable; what it releases is exactly what the manifest declared.
func (m *Manager) Uninstall(name string) error {
	inst, ok := m.installed[name]
	if !ok {
		return fmt.Errorf("%s: %w", name, ErrNotInstalled)
	}
	lc := inst.Manifest.Lifecycle
	if lc.Running != "" && lc.Stop != "" {
		if running, err := m.Query(lc.Running, ""); err == nil && running == "yes" {
			if _, err := m.Query(lc.Stop, ""); err != nil {
				m.b.Log("manager: stop of " + inst.Manifest.Ref() + " trapped: " + err.Error())
			}
		}
	}
	for _, tm := range inst.Manifest.Timers {
		m.b.CancelTimer(tm)
	}
	if inst.Manifest.OwnsDataPath && m.latestDataPathOwner() == name {
		// Release the claim only if no later-installed switchlet has
		// replaced this one's handler: uninstalling a superseded claimer
		// (dumb after learning took over) must not blackhole the node.
		m.b.ClearHandler()
	}
	for _, addr := range inst.Manifest.DstBindings {
		m.b.ClearDstHandler(addr)
	}
	for _, h := range inst.Manifest.Handlers {
		m.b.Funcs.Unregister(h)
	}
	for _, h := range []string{lc.Start, lc.Stop, lc.Probe, lc.Running} {
		if h != "" {
			m.b.Funcs.Unregister(h)
		}
	}
	m.b.Loader.Unload(name)
	m.b.Loader.FlushAllICs()
	delete(m.installed, name)
	for i, n := range m.order {
		if n == name {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.lifecycle.Uninstalls++
	return nil
}

// latestDataPathOwner returns the most recently installed switchlet
// declaring OwnsDataPath — the one whose handler currently owns the data
// path under the replace-on-install discipline.
func (m *Manager) latestDataPathOwner() string {
	for i := len(m.order) - 1; i >= 0; i-- {
		if m.installed[m.order[i]].Manifest.OwnsDataPath {
			return m.order[i]
		}
	}
	return ""
}

// UpgradeState is the phase of an in-flight or finished upgrade.
type UpgradeState int

const (
	// UpgradeValidating: the new switchlet is active and being watched;
	// the decision point has not arrived.
	UpgradeValidating UpgradeState = iota
	// UpgradeCommitted: validation passed; the new switchlet owns the
	// protocol.
	UpgradeCommitted
	// UpgradeRolledBack: a trap, a validation mismatch, late old-protocol
	// traffic, or an operator decision returned the node to the old
	// switchlet.
	UpgradeRolledBack
)

var upgradeStateNames = [...]string{"validating", "committed", "rolled-back"}

// String returns the state's stable name.
func (s UpgradeState) String() string {
	if int(s) >= len(upgradeStateNames) {
		return fmt.Sprintf("upgradestate(%d)", int(s))
	}
	return upgradeStateNames[s]
}

// UpgradeOptions tunes an upgrade's transition windows, mirroring the
// paper's Table 1 timings.
type UpgradeOptions struct {
	// SuppressFor is the window after handoff during which stray
	// old-protocol frames are absorbed silently (paper: 30 s). After it,
	// an old-protocol frame means the old protocol is still alive
	// somewhere — grounds for rollback.
	SuppressFor netsim.Duration
	// ValidateAfter is when the new protocol's probe is compared against
	// the state captured from the old one (paper: 60 s).
	ValidateAfter netsim.Duration
	// OldAddr, if non-zero, is the old protocol's multicast address; the
	// Manager guards it after handoff to implement suppression and
	// late-traffic fallback. Zero defaults to the old switchlet's
	// declared Lifecycle.ProtoAddr.
	OldAddr ethernet.MAC
	// NewAddr, if non-zero, is the new protocol's multicast address;
	// after a rollback it is claimed and drained so no further
	// transition can trigger without human intervention (the paper's
	// sticky-fallback rule). Zero defaults to the new switchlet's
	// declared Lifecycle.ProtoAddr.
	NewAddr ethernet.MAC
}

// DefaultUpgradeOptions returns the paper's transition windows: 30 s of
// suppression, validation at 60 s.
func DefaultUpgradeOptions() UpgradeOptions {
	return UpgradeOptions{
		SuppressFor:   30 * netsim.Second,
		ValidateAfter: 60 * netsim.Second,
	}
}

// Upgrade is one live-upgrade attempt: old and new switchlets
// co-resident, handler ownership handed off atomically in virtual time,
// and an automatic decision pending.
type Upgrade struct {
	m        *Manager
	old, new *Installed
	opts     UpgradeOptions

	// Captured is the old protocol's probe output at handoff — the
	// state the new protocol must reproduce.
	Captured string
	// Reason describes why the upgrade rolled back (empty otherwise).
	Reason string

	state      UpgradeState
	guardArmed bool // suppression window has elapsed
	suppressed int
}

// State returns the upgrade's current phase.
func (u *Upgrade) State() UpgradeState { return u.state }

// Suppressed reports how many stray old-protocol frames were absorbed.
func (u *Upgrade) Suppressed() int { return u.suppressed }

// Old returns the record of the switchlet being replaced.
func (u *Upgrade) Old() *Installed { return u.old }

// New returns the record of the replacement switchlet.
func (u *Upgrade) New() *Installed { return u.new }

// Upgrade installs next and atomically hands the protocol over from the
// installed switchlet oldName: capture the old probe, stop old, start
// new — all at one virtual instant. The upgrade then validates itself:
// at opts.ValidateAfter the new probe must equal the captured state or
// the node rolls back; a trap while starting the new switchlet rolls
// back immediately (the returned error describes the trap and the
// returned Upgrade records the rollback); stray old-protocol frames
// after the suppression window also roll back. This is the paper's
// DEC→IEEE transition (§5.4, Table 1) as a reusable primitive.
func (m *Manager) Upgrade(oldName string, next env.Manifest, opts UpgradeOptions) (*Upgrade, error) {
	old, ok := m.installed[oldName]
	if !ok {
		return nil, fmt.Errorf("%s: %w", oldName, ErrNotInstalled)
	}
	if !old.Manifest.Lifecycle.Complete() {
		return nil, fmt.Errorf("%s: %w", oldName, ErrNotUpgradable)
	}
	if !next.Lifecycle.Complete() {
		return nil, fmt.Errorf("%s: %w", next.Name, ErrNotUpgradable)
	}
	if opts.SuppressFor == 0 {
		opts.SuppressFor = DefaultUpgradeOptions().SuppressFor
	}
	if opts.ValidateAfter == 0 {
		opts.ValidateAfter = DefaultUpgradeOptions().ValidateAfter
	}
	if opts.OldAddr == (ethernet.MAC{}) {
		opts.OldAddr = old.Manifest.Lifecycle.ProtoAddr
	}
	if opts.NewAddr == (ethernet.MAC{}) {
		opts.NewAddr = next.Lifecycle.ProtoAddr
	}

	inst, err := m.Install(next)
	if err != nil {
		return nil, err
	}
	// From here on use inst.Manifest, not next: Install may have adopted
	// the module name from a precompiled object.
	newRef := inst.Manifest.Ref()
	u := &Upgrade{m: m, old: old, new: inst, opts: opts}

	captured, err := m.Query(old.Manifest.Lifecycle.Probe, "")
	if err != nil {
		_ = m.Uninstall(inst.Manifest.Name)
		return nil, fmt.Errorf("upgrade %s: probing old state: %w", oldName, err)
	}
	u.Captured = captured
	m.b.Log(fmt.Sprintf("manager: upgrading %s -> %s", old.Manifest.Ref(), newRef))

	// Atomic handoff: stop old, start new, guard the old address — no
	// virtual time passes between these calls.
	if _, err := m.Query(old.Manifest.Lifecycle.Stop, ""); err != nil {
		_ = m.Uninstall(inst.Manifest.Name)
		return nil, fmt.Errorf("upgrade %s: stopping old switchlet: %w", oldName, err)
	}
	m.lifecycle.Upgrades++
	if _, err := m.Query(inst.Manifest.Lifecycle.Start, ""); err != nil {
		u.rollback("start of " + newRef + " trapped: " + err.Error())
		m.upgrades = append(m.upgrades, u)
		return u, fmt.Errorf("upgrade %s: starting %s: %w (rolled back)", oldName, newRef, err)
	}
	if u.opts.OldAddr != (ethernet.MAC{}) {
		guard := FrameHandler{Name: "upgrade-guard", Native: u.onOldFrame}
		if err := m.b.SetDstHandler(u.opts.OldAddr, guard); err != nil {
			m.b.Log("manager: old-address guard not installed: " + err.Error())
		}
	}

	m.b.sim.After(opts.SuppressFor, func() {
		if u.state == UpgradeValidating {
			u.guardArmed = true
			m.b.Log("manager: suppression period over; monitoring for failures")
		}
	})
	m.b.sim.After(opts.ValidateAfter, func() { u.validate() })
	m.upgrades = append(m.upgrades, u)
	return u, nil
}

// onOldFrame is the native guard on the old protocol's address: absorb
// during suppression, fall back on late traffic.
func (u *Upgrade) onOldFrame(data []byte, inPort int) {
	if u.state != UpgradeValidating {
		return
	}
	if !u.guardArmed {
		u.suppressed++
		return
	}
	u.rollback("old-protocol packet after transition period")
}

// validate is the decision point: the new protocol must have reproduced
// the captured old state.
func (u *Upgrade) validate() {
	if u.state != UpgradeValidating {
		return
	}
	probe, err := u.m.Query(u.new.Manifest.Lifecycle.Probe, "")
	if err != nil {
		u.rollback("probe of " + u.new.Manifest.Ref() + " trapped: " + err.Error())
		return
	}
	if probe != u.Captured {
		u.rollback("state mismatch: new " + probe + " expected " + u.Captured)
		return
	}
	u.state = UpgradeCommitted
	u.m.lifecycle.Commits++
	u.releaseGuard()
	u.m.b.Log("manager: upgrade to " + u.new.Manifest.Ref() + " committed")
}

// Rollback returns the node to the old switchlet: stop new, restart old.
// It is the automatic failure path and also the operator's undo — legal
// while validating and after a commit, idempotent once rolled back.
func (u *Upgrade) Rollback(reason string) error {
	if u.state == UpgradeRolledBack {
		return nil
	}
	u.rollback(reason)
	return nil
}

func (u *Upgrade) rollback(reason string) {
	if u.state == UpgradeRolledBack {
		return
	}
	u.state = UpgradeRolledBack
	u.Reason = reason
	u.m.lifecycle.Rollbacks++
	u.m.b.Loader.FlushAllICs()
	u.m.b.Log("manager: ROLLBACK (" + reason + ")")
	u.m.b.traceDump(tracing.KindMark, tracing.FormRollback, reason, "rollback at "+u.m.b.Name+": "+reason)
	u.releaseGuard()
	if _, err := u.m.Query(u.new.Manifest.Lifecycle.Stop, ""); err != nil {
		u.m.b.Log("manager: stop of " + u.new.Manifest.Ref() + " trapped: " + err.Error())
	}
	if _, err := u.m.Query(u.old.Manifest.Lifecycle.Start, ""); err != nil {
		u.m.b.Log("manager: restart of " + u.old.Manifest.Ref() + " trapped: " + err.Error())
	}
	if u.opts.NewAddr != (ethernet.MAC{}) {
		// Sticky fallback: claim the new protocol's address and drain it
		// so no further transition can trigger without human
		// intervention.
		swallow := FrameHandler{Name: "fallback-drain", Native: func([]byte, int) {}}
		if err := u.m.b.SetDstHandler(u.opts.NewAddr, swallow); err != nil {
			u.m.b.Log("manager: fallback drain not installed: " + err.Error())
		}
	}
}

// releaseGuard removes the old-address guard if this upgrade owns it.
func (u *Upgrade) releaseGuard() {
	if u.opts.OldAddr == (ethernet.MAC{}) {
		return
	}
	if h, ok := u.m.b.dstHandlers[u.opts.OldAddr]; ok && h.Name == "upgrade-guard" {
		u.m.b.ClearDstHandler(u.opts.OldAddr)
	}
}

// LastUpgrade returns the most recent upgrade attempt, or nil.
func (m *Manager) LastUpgrade() *Upgrade {
	if len(m.upgrades) == 0 {
		return nil
	}
	return m.upgrades[len(m.upgrades)-1]
}

// Rollback undoes the most recent upgrade (see Upgrade.Rollback).
func (m *Manager) Rollback(reason string) error {
	u := m.LastUpgrade()
	if u == nil {
		return fmt.Errorf("rollback: %w", ErrNotInstalled)
	}
	return u.Rollback(reason)
}

// NoteFault tells the Manager a fault touched this node — a port lost
// carrier, a link the node depends on flapped. Any upgrade still in its
// validation window rolls back: its probe comparison would be measured
// across the fault, and a transition must not commit on evidence the
// network corrupted. This is what makes Upgrade validation fault-aware.
func (m *Manager) NoteFault(reason string) {
	for _, u := range m.upgrades {
		if u.state == UpgradeValidating {
			u.rollback("fault during validation window: " + reason)
		}
	}
}

// noteCrash snapshots the Manager's state at the instant of a fault-plane
// crash, while the machine is still answerable. Validating upgrades are
// marked rolled back directly — the node is dying, so the usual
// stop-new/start-old choreography is meaningless; what matters is that
// the snapshot records the OLD switchlet as the one to restore, and that
// the upgrade can never commit from a post-restart validate() fire.
func (m *Manager) noteCrash() {
	cs := &crashState{}
	exclude := map[string]bool{}
	forceRun := map[string]bool{}
	for _, u := range m.upgrades {
		if u.state != UpgradeValidating {
			continue
		}
		u.state = UpgradeRolledBack
		u.Reason = "bridge crashed during validation window"
		m.lifecycle.Rollbacks++
		m.b.Log("manager: ROLLBACK (" + u.Reason + ")")
		exclude[u.new.Manifest.Name] = true
		forceRun[u.old.Manifest.Name] = true
	}
	for _, name := range m.order {
		if exclude[name] {
			continue
		}
		inst := m.installed[name]
		cs.manifests = append(cs.manifests, inst.Manifest)
		lc := inst.Manifest.Lifecycle
		running := forceRun[name]
		if !running && lc.Running != "" {
			if ans, err := m.Query(lc.Running, ""); err == nil && ans == "yes" {
				running = true
			}
		}
		if running && lc.Start != "" {
			cs.running = append(cs.running, name)
		}
	}
	m.crash = cs
}

// coldRestart rebuilds the node from the crash snapshot: wipe the whole
// switchlet namespace (the VM heap died with the node), re-install every
// snapshotted manifest in order, and restart the protocols that were
// running. Switchlets that arrived outside the Manager — netloaded over
// TFTP, or natively installed — are not in the snapshot and stay gone.
// Returns the first re-install or restart error; the rebuild continues
// past failures so one bad switchlet does not block the rest.
func (m *Manager) coldRestart() error {
	cs := m.crash
	m.crash = nil
	// Wholesale wipe, newest first: unregister everything each manifest
	// declared and unload its module. Timers were already cleared by the
	// crash; dst registrations and the data-path handler are wiped below.
	for i := len(m.order) - 1; i >= 0; i-- {
		inst := m.installed[m.order[i]]
		for _, h := range inst.Manifest.Handlers {
			m.b.Funcs.Unregister(h)
		}
		lc := inst.Manifest.Lifecycle
		for _, h := range []string{lc.Start, lc.Stop, lc.Probe, lc.Running} {
			if h != "" {
				m.b.Funcs.Unregister(h)
			}
		}
		m.b.Loader.Unload(m.order[i])
	}
	m.installed = map[string]*Installed{}
	m.order = nil
	m.b.ClearHandler()
	m.b.clearAllDstHandlers()
	if cs == nil {
		return nil
	}
	var firstErr error
	for _, sw := range cs.manifests {
		if _, err := m.Install(sw); err != nil {
			m.b.Log("manager: restart re-install of " + sw.Ref() + " failed: " + err.Error())
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, name := range cs.running {
		inst, ok := m.installed[name]
		if !ok {
			continue // its re-install failed above
		}
		if _, err := m.Query(inst.Manifest.Lifecycle.Start, ""); err != nil {
			m.b.Log("manager: restart of " + inst.Manifest.Ref() + " trapped: " + err.Error())
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
