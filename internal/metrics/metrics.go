// Package metrics is the live telemetry plane of the reproduction: a
// registry of instruments every layer publishes into, served to
// wall-clock observers without perturbing virtual time.
//
// Nearly every instrument is a sampler: a closure over state the
// simulation already keeps (bridge.Stats, NIC and engine counters).
// Dynamic gauge families are sampled the same way, for populations that
// change during a run. The one live instrument is the Histogram, written
// only by the goroutine that owns the observing component
// (Histogram.Observe: plain stores, no locks, no allocation); its two
// producers are the ping reply path and the tracer's quiescent merge.
//
// Registry.Publish is the only code that reads instruments. It runs at
// quiescent points only — after a serial Sim.Run drains, or in a
// netsim.Coordinator.OnQuiesce callback when the simulation is sharded
// — and flattens every family into one immutable document, stored
// behind one atomic pointer. Wall-clock readers (the /metrics and
// /snapshot HTTP endpoints, the in-process Snapshot API) only load that
// pointer, so a scraper can never contend with a running simulation:
// the hot path takes no lock, and collection happens exactly when every
// shard is parked. A series registered after the last Publish is absent
// until the next one.
//
// Registration and Publish have a single writer: the goroutine that
// drives the net (topo's quiescence hook, a scenario between runs, the
// script console between commands). Histogram.Observe and every sampler
// already live under that rule. Because samplers only read and
// histogram observations are plain Go stores, enabling metrics never
// schedules an event, never advances a clock, and never changes a
// virtual-time output — the golden-fingerprint suite pins that a
// metrics-on run is byte-identical to a metrics-off run at any shard
// count.
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
	"slices"
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

// appendRendered appends the canonical {a="b",c="d"} form of ls
// (nothing when empty) to buf, escaping backslash, double quote and
// newline per the exposition format.
func (ls Labels) appendRendered(buf []byte) []byte {
	if len(ls) == 0 {
		return buf
	}
	buf = append(buf, '{')
	for i, l := range ls {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, l.Name...)
		buf = append(buf, `="`...)
		for j := 0; j < len(l.Value); j++ {
			switch c := l.Value[j]; c {
			case '\\':
				buf = append(buf, `\\`...)
			case '"':
				buf = append(buf, `\"`...)
			case '\n':
				buf = append(buf, `\n`...)
			default:
				buf = append(buf, c)
			}
		}
		buf = append(buf, '"')
	}
	return append(buf, '}')
}

// render returns the canonical form appendRendered writes.
func (ls Labels) render() string { return string(ls.appendRendered(nil)) }

// Histogram is a fixed-bucket distribution. The bucket layout is frozen
// at registration; Observe is a bounded linear scan over a slice that
// never reallocates, so steady-state observation is allocation-free.
// It is single-writer: only the goroutine owning the observing
// component may call Observe.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []uint64  // len(bounds)+1, cumulative only at publish time
	sum    float64
	count  uint64
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

// emitter is one contributor to a family's points: exactly one of
// sample, hist and dynamic is set.
type emitter struct {
	labels  string // rendered; samplers and histograms
	sample  func() float64
	hist    *Histogram
	le      []string // hist: each bucket's rendered label set, +Inf last
	dynamic func(emit func(Labels, float64))
}

// family groups the emitters of one metric name. Its name, help and
// kind are fixed at creation, which is what lets a published document
// point at it.
type family struct {
	name, help string
	kind       Kind
	emitters   []emitter
	dynamic    bool            // the emitters are dynamic contributors
	seen       map[string]bool // rendered static label sets, duplicate guard

	// Histogram families: the shared bucket layout and the names of the
	// flattened _bucket/_sum/_count series ("" until the first series).
	bounds             []float64
	bucket, sum, count string
}

// document is one immutable publication of a registry: the flattened
// points of every family, in registration order, and the wall-clock
// instant they were read. Nothing writes to a document once it is
// stored.
type document struct {
	wall   int64
	points []point
	fams   []docFamily
}

// point is one flattened series of a document; its kind is its
// family's.
type point struct {
	name, labels string
	value        float64
}

// docFamily is one family of a document; its points run from the
// previous family's end up to end.
type docFamily struct {
	f   *family
	end int
}

// families hands visit each family of the document with its points.
func (d *document) families(visit func(f *family, pts []point)) {
	lo := 0
	for _, df := range d.fams {
		visit(df.f, d.points[lo:df.end])
		lo = df.end
	}
}

// Registry is one component tree's instrument set — typically one
// materialized topo.Net. Registration and Publish belong to the one
// goroutine that drives the net; readers only load the published
// document.
type Registry struct {
	// Net names the instrumented simulation (the topology graph name).
	Net string

	families []*family
	byName   map[string]*family
	doc      atomic.Pointer[document]

	// Publish's working state: the points being collected, the family
	// a dynamic contributor is emitting into, where its points start,
	// its points in the previous document, and a buffer to render
	// labels in. emit is bound once, so Publish creates no closure.
	pts      []point
	emitFam  *family
	emitFrom int
	emitPrev []point
	labelBuf []byte
	emit     func(Labels, float64)
}

// NewRegistry creates an empty registry for the named net.
func NewRegistry(net string) *Registry {
	r := &Registry{Net: net, byName: map[string]*family{}}
	r.emit = r.emitDynamic
	r.doc.Store(&document{})
	return r
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

// validLabelName is validName without the colon, which label names may
// not hold.
func validLabelName(s string) bool { return !strings.Contains(s, ":") && validName(s) }

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

// addSeries appends a static series' emitter, rendering its label set
// (and a histogram's le label sets) once, here.
func (f *family) addSeries(ls Labels, e emitter) {
	if f.dynamic {
		panic("metrics: " + f.name + " is a dynamic family; cannot add static series")
	}
	for _, l := range ls {
		if !validLabelName(l.Name) {
			panic("metrics: invalid label name " + l.Name + " on " + f.name)
		}
	}
	e.labels = ls.render()
	if f.seen[e.labels] {
		panic("metrics: duplicate series " + f.name + e.labels)
	}
	f.seen[e.labels] = true
	if e.hist != nil {
		e.le = make([]string, 0, len(f.bounds)+1)
		for _, b := range f.bounds {
			e.le = append(e.le, withLe(e.labels, formatValue(b)))
		}
		e.le = append(e.le, withLe(e.labels, "+Inf"))
	}
	f.emitters = append(f.emitters, e)
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
	f := r.familyFor(name, help, KindHistogram)
	if f.bucket == "" {
		f.bounds, f.bucket, f.sum, f.count = b, name+"_bucket", name+"_sum", name+"_count"
	} else if !slices.Equal(f.bounds, b) {
		// Every series of a family shares one layout, or the rendered
		// le labels would lie.
		panic("metrics: histogram " + name + " bucket layout differs across series")
	}
	h := &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
	f.addSeries(ls, emitter{hist: h})
	return h
}

// SampleCounter registers a counter whose value is read from fn at every
// Publish — the idiom for mirroring counters a component already keeps
// (bridge.Stats, NIC counters): zero cost on the instrumented path.
func (r *Registry) SampleCounter(name, help string, ls Labels, fn func() float64) {
	r.familyFor(name, help, KindCounter).addSeries(ls, emitter{sample: fn})
}

// SampleGauge registers a gauge whose value is read from fn at every
// Publish.
func (r *Registry) SampleGauge(name, help string, ls Labels, fn func() float64) {
	r.familyFor(name, help, KindGauge).addSeries(ls, emitter{sample: fn})
}

// Dynamic registers an emitter into a gauge family whose series set is
// re-enumerated at every Publish — for populations that change during a
// run, like the installed-switchlet version set of a bridge. Several
// components may register emitters into the same family (one per
// bridge, say); each emitter's label sets must stay distinct. fn may
// call emit only while it runs.
func (r *Registry) Dynamic(name, help string, fn func(emit func(Labels, float64))) {
	f := r.familyFor(name, help, KindGauge)
	if len(f.emitters) > 0 && !f.dynamic {
		panic("metrics: " + name + " already has static series")
	}
	f.dynamic = true
	f.emitters = append(f.emitters, emitter{dynamic: fn})
}

// Publish reads every instrument, in registration order, into a new
// document and stores it for readers. Call it only at quiescent points
// (Coordinator.OnQuiesce / serial Sim.OnQuiesce — topo wires this
// automatically): samplers read engine state without synchronization,
// which is exactly what quiescence licenses.
func (r *Registry) Publish() {
	// The previous document's size is the capacity hint: the points
	// slice is the one allocation that scales with the registry.
	prev := r.doc.Load()
	r.pts = make([]point, 0, len(prev.points))
	fams := make([]docFamily, len(r.families))
	lo := 0 // where family i starts in prev
	for i, f := range r.families {
		hi := lo
		if i < len(prev.fams) {
			hi = prev.fams[i].end
		}
		if f.dynamic {
			r.emitFam, r.emitFrom, r.emitPrev = f, len(r.pts), prev.points[lo:hi]
		}
		for _, e := range f.emitters {
			switch {
			case e.sample != nil:
				r.pts = append(r.pts, point{f.name, e.labels, e.sample()})
			case e.hist != nil:
				cum := uint64(0)
				for j, c := range e.hist.counts {
					cum += c
					r.pts = append(r.pts, point{f.bucket, e.le[j], float64(cum)})
				}
				r.pts = append(r.pts,
					point{f.sum, e.labels, e.hist.sum},
					point{f.count, e.labels, float64(e.hist.count)})
			default:
				e.dynamic(r.emit)
			}
		}
		fams[i] = docFamily{f: f, end: len(r.pts)}
		lo = hi
	}
	r.doc.Store(&document{wall: time.Now().UnixNano(), points: r.pts, fams: fams})
	r.pts, r.emitFam, r.emitPrev = nil, nil, nil
}

// emitDynamic is the emit callback Publish hands dynamic contributors.
// A dynamic family's label sets mostly repeat from one publish to the
// next, so a point whose rendered labels equal those of the point at
// its place in the previous document shares that string.
func (r *Registry) emitDynamic(ls Labels, v float64) {
	r.labelBuf = ls.appendRendered(r.labelBuf[:0])
	var labels string
	if k := len(r.pts) - r.emitFrom; k < len(r.emitPrev) && r.emitPrev[k].labels == string(r.labelBuf) {
		labels = r.emitPrev[k].labels
	} else {
		labels = string(r.labelBuf)
	}
	r.pts = append(r.pts, point{r.emitFam.name, labels, v})
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

// RenderText writes the registry's published document in the
// Prometheus text exposition format (version 0.0.4). It never blocks a
// running simulation.
func (r *Registry) RenderText(sb *strings.Builder) {
	r.doc.Load().families(func(f *family, pts []point) {
		writeFamily(sb, f, pts)
	})
}

// helpEscaper escapes HELP text the way exposition format 0.0.4
// requires: backslash as \\ and newline as \n.
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// writeFamily writes one family's # HELP and # TYPE lines followed by
// one row per point — the one writer behind both text expositions.
func writeFamily(sb *strings.Builder, f *family, pts []point) {
	fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s %s\n", f.name, helpEscaper.Replace(f.help), f.name, f.kind)
	for _, p := range pts {
		sb.WriteString(p.name)
		sb.WriteString(p.labels)
		sb.WriteByte(' ')
		sb.WriteString(formatValue(p.value))
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

// Snapshot returns the registry's published values.
func (r *Registry) Snapshot() Snapshot {
	d := r.doc.Load()
	snap := Snapshot{Net: r.Net, WallUnixNs: d.wall}
	d.families(func(f *family, pts []point) {
		for _, p := range pts {
			snap.Series = append(snap.Series, Point{Name: p.name, Labels: p.labels, Kind: f.kind.String(), Value: p.value})
		}
	})
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

// RenderText renders every attached registry's published document as
// one exposition. A family name may repeat across nets, and the format
// requires each name's HELP/TYPE exactly once with all its series
// grouped under it, so the hub merges families across documents before
// rendering.
func (h *Hub) RenderText() string {
	type famEntry struct {
		f   *family
		pts []point
	}
	var order []*famEntry
	fams := map[string]*famEntry{}
	for _, r := range h.Registries() {
		r.doc.Load().families(func(f *family, pts []point) {
			fe, ok := fams[f.name]
			if !ok {
				fe = &famEntry{f: f}
				fams[f.name] = fe
				order = append(order, fe)
			}
			fe.pts = append(fe.pts, pts...)
		})
	}
	var sb strings.Builder
	for _, fe := range order {
		writeFamily(&sb, fe.f, fe.pts)
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
