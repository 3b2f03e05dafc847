// Package metrics is the live telemetry plane of the reproduction: a
// registry of instruments every layer publishes into, served to
// wall-clock observers without perturbing virtual time.
//
// Nearly every instrument is a sampler: a closure over state the
// simulation already keeps (bridge.Stats, NIC and engine counters),
// read by Registry.Publish at quiescent points only — after a serial
// Sim.Run drains, or in a netsim.Coordinator.OnQuiesce callback when
// the simulation is sharded — into an atomically published cell.
// Dynamic gauge families are sampled the same way, for populations that
// change during a run.
//
// Histograms are the one instrument with two storages: a live cell
// written only by the goroutine that owns the observing component
// (Histogram.Observe: plain stores, no locks, no allocation), copied
// into a published snapshot by Publish. Their two producers are the
// ping reply path and the tracer's quiescent merge.
//
// Wall-clock readers (the /metrics and /snapshot HTTP endpoints, the
// in-process Snapshot API) touch only the published cells, so a scraper
// can never contend with a running simulation: the hot path takes no
// lock, and collection happens exactly when every shard is parked.
// Because samplers only read and histogram observations are plain Go
// stores, enabling metrics never schedules an event, never advances a
// clock, and never changes a virtual-time output — the
// golden-fingerprint suite pins that a metrics-on run is byte-identical
// to a metrics-off run at any shard count.
//
// # Naming scheme
//
// Instruments follow Prometheus conventions with an `ab_` prefix and a
// `<subsystem>_` second segment: ab_shard_* (engine gauges),
// ab_engine_* (coordinator), ab_bridge_* (per-bridge counters),
// ab_ttcp_* / ab_ping_* (workloads), ab_trace_* (the causal tracing
// plane: ab_trace_events_total, ab_trace_spans_total,
// ab_trace_dropped_events_total and ab_trace_flight_dumps_total
// samplers over the tracer's merge state, plus the ab_trace_vm_exec_ns
// histogram of VM handler spans observed at Flush). Counters end in
// `_total`. Every instrument registered through topo carries `net`
// (graph name) and, where meaningful, `shard`, `bridge` or `flow`
// labels assigned at Build time.
//
// # Adding a metric
//
// From a scenario or switchlet harness, grab the net's registry and
// register samplers over state the component already keeps:
//
//	reg := net.Metrics() // non-nil once EnableMetrics ran
//	ls := metrics.Labels{{Name: "net", Value: "demo"}}
//	reg.SampleCounter("ab_myproto_hits_total", "frames my handler claimed",
//	    ls, func() float64 { return float64(proto.hits) })
//	reg.SampleGauge("ab_myproto_table_size", "entries in my table",
//	    ls, func() float64 { return float64(len(table)) })
//
// Samplers run at quiescent points on the publishing goroutine, so they
// may read any simulation state without synchronization.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the instrument type, mirroring the Prometheus metric types the
// text exposition declares.
type Kind int

const (
	// KindCounter is a monotonically non-decreasing count.
	KindCounter Kind = iota
	// KindGauge is a point-in-time value that may move both ways.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

var kindNames = [...]string{"counter", "gauge", "histogram"}

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Label is one name="value" pair on a series.
type Label struct {
	Name, Value string
}

// Labels is an ordered label set. Order is preserved in the rendered
// series (registration determinism), and duplicate rendered label sets
// within one family are registration bugs.
type Labels []Label

// With returns a copy of ls extended by one pair; the receiver is not
// modified, so a base label set can be shared across registrations.
func (ls Labels) With(name, value string) Labels {
	out := make(Labels, 0, len(ls)+1)
	out = append(out, ls...)
	return append(out, Label{Name: name, Value: value})
}

// render produces the canonical {a="b",c="d"} form ("" when empty),
// escaping backslash, double quote and newline per the exposition
// format.
func (ls Labels) render() string {
	if len(ls) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Histogram is a fixed-bucket distribution. The bucket layout is frozen
// at registration; Observe is a bounded linear scan over a slice that
// never reallocates, so steady-state observation is allocation-free.
// It is single-writer: only the goroutine owning the observing
// component may call Observe.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []uint64  // len(bounds)+1, cumulative only at render time
	sum    float64
	count  uint64
}

// equalBounds reports element-wise equality: a family's series must
// share one bucket layout or their rendered le labels would lie.
func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
}

// histSnap is an immutable published copy of a histogram.
type histSnap struct {
	counts []uint64
	sum    float64
	count  uint64
}

// series is one registered time series of a family.
type series struct {
	labels string // rendered

	// Exactly one source is set.
	hist   *Histogram
	sample func() float64

	// Published cells, written by Publish, read by renderers.
	pub     atomic.Uint64 // math.Float64bits of the scalar value
	histPub atomic.Pointer[histSnap]
}

// family groups the series of one metric name.
type family struct {
	name, help string
	kind       Kind
	series     []*series
	seen       map[string]bool // rendered label sets, duplicate guard

	// dynamic families re-enumerate their series at every Publish;
	// several components may contribute emitters to one family.
	dynamics []func(emit func(Labels, float64))
	dynPub   atomic.Pointer[[]dynPoint]

	histBounds []float64
}

type dynPoint struct {
	labels string
	value  float64
}

// Registry is one component tree's instrument set — typically one
// materialized topo.Net. Structure (families, series) is guarded by a
// mutex taken at registration, Publish and render time only; instrument
// updates never touch it.
type Registry struct {
	// Net names the instrumented simulation (the topology graph name).
	Net string

	mu       sync.RWMutex
	families []*family
	byName   map[string]*family

	// publishedWall is the wall-clock instant of the last Publish.
	publishedWall atomic.Int64
}

// NewRegistry creates an empty registry for the named net.
func NewRegistry(net string) *Registry {
	return &Registry{Net: net, byName: map[string]*family{}}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// familyFor finds or creates the family, enforcing one kind and help
// text per name. Misuse is a programming bug: it panics.
func (r *Registry) familyFor(name, help string, kind Kind) *family {
	if !validName(name) {
		panic("metrics: invalid metric name " + name)
	}
	if kind == KindCounter && !strings.HasSuffix(name, "_total") {
		panic("metrics: counter " + name + " must end in _total")
	}
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, seen: map[string]bool{}}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as both %v and %v", name, f.kind, kind))
	}
	if f.help != help {
		panic("metrics: " + name + " registered with conflicting help texts")
	}
	return f
}

func (r *Registry) addSeries(name, help string, kind Kind, ls Labels, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kind)
	if len(f.dynamics) > 0 {
		panic("metrics: " + name + " is a dynamic family; cannot add static series")
	}
	for _, l := range ls {
		if !validLabelName(l.Name) {
			panic("metrics: invalid label name " + l.Name + " on " + name)
		}
	}
	s.labels = ls.render()
	if f.seen[s.labels] {
		panic("metrics: duplicate series " + name + s.labels)
	}
	f.seen[s.labels] = true
	f.series = append(f.series, s)
}

// Histogram registers a live histogram with the given ascending bucket
// upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, ls Labels, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram " + name + " bounds not ascending")
		}
	}
	b := append([]float64(nil), bounds...)
	h := &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
	func() {
		// Deferred unlock, like addSeries: familyFor panics on misuse,
		// and a panicking registration must not leave the registry
		// locked (a recovered panic would then hang every scrape).
		r.mu.Lock()
		defer r.mu.Unlock()
		f := r.familyFor(name, help, KindHistogram)
		if f.histBounds == nil {
			f.histBounds = b
		} else if !equalBounds(f.histBounds, b) {
			panic("metrics: histogram " + name + " bucket layout differs across series")
		}
	}()
	r.addSeries(name, help, KindHistogram, ls, &series{hist: h})
	return h
}

// SampleCounter registers a counter whose value is read from fn at every
// Publish — the idiom for mirroring counters a component already keeps
// (bridge.Stats, NIC counters): zero cost on the instrumented path.
func (r *Registry) SampleCounter(name, help string, ls Labels, fn func() float64) {
	r.addSeries(name, help, KindCounter, ls, &series{sample: fn})
}

// SampleGauge registers a gauge whose value is read from fn at every
// Publish.
func (r *Registry) SampleGauge(name, help string, ls Labels, fn func() float64) {
	r.addSeries(name, help, KindGauge, ls, &series{sample: fn})
}

// Dynamic registers an emitter into a gauge family whose series set is
// re-enumerated at every Publish — for populations that change during a
// run, like the installed-switchlet version set of a bridge. Several
// components may register emitters into the same family (one per
// bridge, say); each emitter's label sets must stay distinct.
func (r *Registry) Dynamic(name, help string, fn func(emit func(Labels, float64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, KindGauge)
	if len(f.series) > 0 {
		panic("metrics: " + name + " already has static series")
	}
	f.dynamics = append(f.dynamics, fn)
}

// Publish copies every live value into the published cells. Call it only
// at quiescent points (Coordinator.OnQuiesce / serial Sim.OnQuiesce —
// topo wires this automatically): samplers read engine state without
// synchronization, which is exactly what quiescence licenses.
func (r *Registry) Publish() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range r.families {
		if len(f.dynamics) > 0 {
			pts := []dynPoint{}
			emit := func(ls Labels, v float64) {
				pts = append(pts, dynPoint{labels: ls.render(), value: v})
			}
			for _, fn := range f.dynamics {
				fn(emit)
			}
			f.dynPub.Store(&pts)
			continue
		}
		for _, s := range f.series {
			switch {
			case s.hist != nil:
				snap := &histSnap{
					counts: append([]uint64(nil), s.hist.counts...),
					sum:    s.hist.sum,
					count:  s.hist.count,
				}
				s.histPub.Store(snap)
			default:
				s.pub.Store(math.Float64bits(s.sample()))
			}
		}
	}
	r.publishedWall.Store(time.Now().UnixNano())
}

// --- rendering ---------------------------------------------------------------

// FormatValue renders a sample value exactly as the text exposition
// does, for consumers that print published values outside a scrape
// (the script console's stats view).
func FormatValue(v float64) string { return formatValue(v) }

// formatValue renders a sample value the way the exposition format
// expects: integral values without an exponent, everything else via %g.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// renderFamilies walks the families in registration order, handing the
// caller each family's comment metadata plus its fully rendered sample
// rows — the one implementation behind both the per-registry and the
// hub-merged text expositions. It reads only published cells.
func (r *Registry) renderFamilies(visit func(name, help string, kind Kind, rows []string)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range r.families {
		var rows []string
		if len(f.dynamics) > 0 {
			if pts := f.dynPub.Load(); pts != nil {
				for _, p := range *pts {
					rows = append(rows, fmt.Sprintf("%s%s %s", f.name, p.labels, formatValue(p.value)))
				}
			}
			visit(f.name, f.help, f.kind, rows)
			continue
		}
		for _, s := range f.series {
			if s.hist != nil {
				flattenHist(f, s, func(name, labels string, v float64) {
					rows = append(rows, fmt.Sprintf("%s%s %s", name, labels, formatValue(v)))
				})
				continue
			}
			v := math.Float64frombits(s.pub.Load())
			rows = append(rows, fmt.Sprintf("%s%s %s", f.name, s.labels, formatValue(v)))
		}
		visit(f.name, f.help, f.kind, rows)
	}
}

// flattenHist hands visit the _bucket/_sum/_count components of one
// histogram series, computed from its published snapshot — the single
// flattening behind both the text exposition and Snapshot, so the two
// surfaces cannot drift.
func flattenHist(f *family, s *series, visit func(name, labels string, v float64)) {
	snap := s.histPub.Load()
	if snap == nil {
		snap = &histSnap{counts: make([]uint64, len(f.histBounds)+1)}
	}
	cum := uint64(0)
	for i, b := range f.histBounds {
		cum += snap.counts[i]
		visit(f.name+"_bucket", withLe(s.labels, formatValue(b)), float64(cum))
	}
	cum += snap.counts[len(f.histBounds)]
	visit(f.name+"_bucket", withLe(s.labels, "+Inf"), float64(cum))
	visit(f.name+"_sum", s.labels, snap.sum)
	visit(f.name+"_count", s.labels, float64(snap.count))
}

// RenderText writes the registry's published values in the Prometheus
// text exposition format (version 0.0.4). It reads only published
// cells; it never blocks a running simulation.
func (r *Registry) RenderText(sb *strings.Builder) {
	r.renderFamilies(func(name, help string, kind Kind, rows []string) {
		writeFamily(sb, name, help, kind, rows)
	})
}

// helpEscaper escapes HELP text the way exposition format 0.0.4
// requires: backslash as \\ and newline as \n.
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// writeFamily writes one family's # HELP and # TYPE lines followed by
// its sample rows — the one writer behind both text expositions.
func writeFamily(sb *strings.Builder, name, help string, kind Kind, rows []string) {
	fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s %s\n", name, helpEscaper.Replace(help), name, kind)
	for _, row := range rows {
		sb.WriteString(row)
		sb.WriteByte('\n')
	}
}

// withLe splices an le="<bound>" label into a rendered label set.
func withLe(rendered, bound string) string {
	le := `le="` + bound + `"`
	if rendered == "" {
		return "{" + le + "}"
	}
	return rendered[:len(rendered)-1] + "," + le + "}"
}

// --- snapshots ---------------------------------------------------------------

// Point is one flattened series in a snapshot. Histograms flatten to
// their _bucket/_sum/_count series, exactly like the text exposition.
type Point struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value"`
}

// Snapshot is one registry's published values, JSON-serializable — the
// in-process API behind /snapshot and the end-of-run summaries.
type Snapshot struct {
	Net string `json:"net"`
	// WallUnixNs is when the values were last published (0 = never).
	WallUnixNs int64   `json:"wall_unix_ns"`
	Series     []Point `json:"series"`
}

// Snapshot returns the registry's current published values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := Snapshot{Net: r.Net, WallUnixNs: r.publishedWall.Load()}
	for _, f := range r.families {
		kind := f.kind.String()
		if len(f.dynamics) > 0 {
			if pts := f.dynPub.Load(); pts != nil {
				for _, p := range *pts {
					snap.Series = append(snap.Series, Point{Name: f.name, Labels: p.labels, Kind: kind, Value: p.value})
				}
			}
			continue
		}
		for _, s := range f.series {
			if s.hist != nil {
				flattenHist(f, s, func(name, labels string, v float64) {
					snap.Series = append(snap.Series, Point{Name: name, Labels: labels, Kind: kind, Value: v})
				})
				continue
			}
			snap.Series = append(snap.Series, Point{Name: f.name, Labels: s.labels, Kind: kind, Value: math.Float64frombits(s.pub.Load())})
		}
	}
	return snap
}

// Get returns the published value of the series with the given name and
// rendered label set ("" for no labels), for tests and summaries.
func (s Snapshot) Get(name, labels string) (float64, bool) {
	for i := range s.Series {
		if s.Series[i].Name == name && s.Series[i].Labels == labels {
			return s.Series[i].Value, true
		}
	}
	return 0, false
}

// --- hub ---------------------------------------------------------------------

// Hub is a process-wide set of live registries — what the HTTP endpoint
// serves. Builds attach their net's registry; re-building a net of the
// same name replaces the previous registry (determinism reruns).
type Hub struct {
	mu    sync.Mutex
	regs  []*Registry
	byNet map[string]int
}

// Attach adds (or replaces, by net name) a registry.
func (h *Hub) Attach(r *Registry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.byNet == nil {
		h.byNet = map[string]int{}
	}
	if i, ok := h.byNet[r.Net]; ok {
		h.regs[i] = r
		return
	}
	h.byNet[r.Net] = len(h.regs)
	h.regs = append(h.regs, r)
}

// Detach removes a net's registry from the hub. A registry's sampler
// closures pin the whole simulation graph they observe, so a
// long-running embedder that builds many topologies must detach (or
// re-use net names — Attach replaces) to let finished simulations be
// collected. It reports whether the net was attached.
func (h *Hub) Detach(net string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	i, ok := h.byNet[net]
	if !ok {
		return false
	}
	h.regs = append(h.regs[:i], h.regs[i+1:]...)
	delete(h.byNet, net)
	for n, j := range h.byNet {
		if j > i {
			h.byNet[n] = j - 1
		}
	}
	return true
}

// Registries returns the attached registries, ordered by net name (the
// attach order interleaves arbitrarily under a parallel runner, so the
// rendered order is made deterministic here).
func (h *Hub) Registries() []*Registry {
	h.mu.Lock()
	out := append([]*Registry(nil), h.regs...)
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Net < out[j].Net })
	return out
}

// SnapshotAll snapshots every attached registry.
func (h *Hub) SnapshotAll() []Snapshot {
	regs := h.Registries()
	out := make([]Snapshot, 0, len(regs))
	for _, r := range regs {
		out = append(out, r.Snapshot())
	}
	return out
}

// RenderText renders every attached registry's published values as one
// exposition document. A family name may repeat across nets, and the
// format requires each name's HELP/TYPE exactly once with all its
// series grouped under it, so the hub merges families across
// registries before rendering — through the same renderFamilies walk
// the per-registry exposition uses.
func (h *Hub) RenderText() string {
	type famEntry struct {
		help string
		kind Kind
		rows []string
	}
	var order []string
	fams := map[string]*famEntry{}
	for _, r := range h.Registries() {
		r.renderFamilies(func(name, help string, kind Kind, rows []string) {
			fe, ok := fams[name]
			if !ok {
				fe = &famEntry{help: help, kind: kind}
				fams[name] = fe
				order = append(order, name)
			}
			fe.rows = append(fe.rows, rows...)
		})
	}
	var sb strings.Builder
	for _, name := range order {
		fe := fams[name]
		writeFamily(&sb, name, fe.help, fe.kind, fe.rows)
	}
	return sb.String()
}

// DefaultHub is the process-wide hub the SDK's ServeMetrics serves.
var DefaultHub = &Hub{}

// enabled is the process-wide opt-in: when set, topo.Build instruments
// every materialized net and attaches it to DefaultHub.
var enabled atomic.Bool

// Enable turns the metrics plane on process-wide
// (activebridge.EnableMetrics).
func Enable() { enabled.Store(true) }

// SetEnabled sets the process-wide opt-in explicitly (tests restore the
// previous state with it).
func SetEnabled(v bool) bool { return enabled.Swap(v) }

// Enabled reports whether the metrics plane is on.
func Enabled() bool { return enabled.Load() }
