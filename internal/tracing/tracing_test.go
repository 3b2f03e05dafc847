package tracing

import (
	"bytes"
	"strings"
	"testing"
)

// sampledID builds a trace ID that carries both the "traced" and the
// "sampled" bits without going through the mint.
func sampledID(n uint64) uint64 { return n<<1 | 1<<63 | 1 }

func TestTraceIDDeterministicAndTagged(t *testing.T) {
	a := New(Config{Seed: 42})
	b := New(Config{Seed: 42})
	seedA, seedB := a.SeedFor("br0.eth1"), b.SeedFor("br0.eth1")
	if seedA != seedB {
		t.Fatalf("SeedFor not deterministic: %x vs %x", seedA, seedB)
	}
	if other := a.SeedFor("br0.eth2"); other == seedA {
		t.Fatalf("distinct NICs share a stream seed: %x", other)
	}
	seen := map[uint64]bool{}
	for n := uint64(1); n <= 100; n++ {
		id := a.TraceID(seedA, n)
		if id != b.TraceID(seedB, n) {
			t.Fatalf("TraceID(%d) not deterministic", n)
		}
		if id&(1<<63) == 0 {
			t.Fatalf("TraceID(%d) = %x: bit 63 clear (collides with untraced zero)", n, id)
		}
		if seen[id] {
			t.Fatalf("TraceID(%d) = %x repeats within the stream", n, id)
		}
		seen[id] = true
	}
}

func TestTraceIDSampling(t *testing.T) {
	all := New(Config{Seed: 7, SampleProb: 1})
	none := New(Config{Seed: 7, SampleProb: 1e-12})
	seed := all.SeedFor("h1.eth0")
	for n := uint64(1); n <= 200; n++ {
		if !Sampled(all.TraceID(seed, n)) {
			t.Fatalf("SampleProb=1: trace %d unsampled", n)
		}
		if Sampled(none.TraceID(seed, n)) {
			t.Fatalf("SampleProb~0: trace %d sampled", n)
		}
	}
	// The decision rides the ID itself, so it is identical wherever the
	// ID travels — no per-shard coin flips.
	half := New(Config{Seed: 7, SampleProb: 0.5})
	sampled := 0
	for n := uint64(1); n <= 1000; n++ {
		if Sampled(half.TraceID(seed, n)) {
			sampled++
		}
	}
	if sampled < 350 || sampled > 650 {
		t.Fatalf("SampleProb=0.5: %d/1000 sampled, far from fair", sampled)
	}
}

func TestFlightRingWraparound(t *testing.T) {
	tr := New(Config{FlightN: 4})
	e := tr.Engine(0)
	for i := 1; i <= 10; i++ {
		// Unsampled events (bit 0 clear) still enter the flight ring.
		e.Emit(Event{VT: int64(i), Trace: 1 << 63, Kind: KindSend, Node: "n"})
	}
	e.DumpFlight("test", 10)
	dumps := tr.FlightDumps()
	if len(dumps) != 1 || tr.DumpCount() != 1 {
		t.Fatalf("expected 1 dump, got %d (count %d)", len(dumps), tr.DumpCount())
	}
	d := dumps[0]
	if len(d.Events) != 4 {
		t.Fatalf("ring of 4 dumped %d events", len(d.Events))
	}
	for i, ev := range d.Events {
		if want := int64(7 + i); ev.VT != want {
			t.Fatalf("dump[%d].VT = %d, want %d (oldest first)", i, ev.VT, want)
		}
	}
	if len(tr.Transcript()) != 0 {
		t.Fatalf("unsampled events leaked into the transcript")
	}
}

func TestFlushCanonicalOrderAndXShard(t *testing.T) {
	tr := New(Config{})
	e0, e1 := tr.Engine(0), tr.Engine(1)
	// Same instant, one trace, recorded out of pipeline order across two
	// engines; the crossing itself must stay flight-only.
	id := sampledID(9)
	e1.Emit(Event{VT: 50, Trace: id, Kind: KindVM, Node: "br", Dur: 10})
	e1.Emit(Event{VT: 50, Trace: id, Kind: KindVerdict, Node: "br"})
	e0.Emit(Event{VT: 50, Trace: id, Kind: KindXShard, Node: "h1.eth0"})
	e0.Emit(Event{VT: 50, Trace: id, Kind: KindSend, Node: "h1.eth0"})
	e0.Emit(Event{VT: 40, Trace: id, Kind: KindWire, Node: "s0", Dur: 5})
	// Two events that differ only in an operand, recorded in opposite
	// orders on the two engines: the order on operands must be total.
	e1.Emit(Event{VT: 60, Trace: id, Kind: KindRx, Node: "h2.eth0", Form: FormLen, N: [4]int64{1514}})
	e0.Emit(Event{VT: 60, Trace: id, Kind: KindRx, Node: "h2.eth0", Form: FormLen, N: [4]int64{562}})
	tr.Flush()
	got := tr.Transcript()
	kinds := make([]Kind, len(got))
	for i := range got {
		kinds[i] = got[i].Kind
	}
	want := []Kind{KindWire, KindSend, KindVM, KindVerdict, KindRx, KindRx}
	if len(kinds) != len(want) {
		t.Fatalf("transcript has %d events (%v), want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("transcript[%d] = %s, want %s", i, kinds[i], want[i])
		}
	}
	if got[4].N[0] != 562 || got[5].N[0] != 1514 {
		t.Fatalf("same-instant events differing in N sorted %d, %d; want 562, 1514", got[4].N[0], got[5].N[0])
	}
	if tr.Spans() != 6 {
		t.Fatalf("Spans() = %d, want 6 (xshard never counts)", tr.Spans())
	}
}

func TestTranscriptCapCountsDropped(t *testing.T) {
	tr := New(Config{MaxEvents: 3})
	e := tr.Engine(0)
	for i := 1; i <= 5; i++ {
		e.Emit(Event{VT: int64(i), Trace: sampledID(uint64(i)), Kind: KindSend, Node: "n"})
	}
	tr.Flush()
	if len(tr.Transcript()) != 3 {
		t.Fatalf("cap 3 kept %d events", len(tr.Transcript()))
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2 (no silent truncation)", tr.Dropped())
	}
}

func TestRenderTranscriptFormat(t *testing.T) {
	tr := New(Config{})
	e := tr.Engine(0)
	e.Emit(Event{VT: 100, Trace: sampledID(1), Kind: KindSend, Node: "h1.eth0", Form: FormLen, N: [4]int64{64}})
	e.Emit(Event{VT: 120, Trace: sampledID(1), Kind: KindWire, Node: "s0", Dur: 7, Form: FormLen, N: [4]int64{64}})
	tr.Flush()
	var sb strings.Builder
	tr.RenderTranscript(&sb)
	want := "t=100          8000000000000003 send    h1.eth0 len=64\n" +
		"t=120          8000000000000003 wire    s0 dur=7 len=64\n"
	if sb.String() != want {
		t.Fatalf("render format drifted:\n got %q\nwant %q", sb.String(), want)
	}
}

// TestEventTextWording pins the rendered text of every Form to the
// string the emit sites used to format eagerly, and that the text
// transcript and the Chrome export render through Text.
func TestEventTextWording(t *testing.T) {
	rows := []struct {
		ev   Event
		want string
	}{
		{Event{Form: FormLabel, Name: "rx linkdown"}, "rx linkdown"},
		{Event{Form: FormLabel}, ""},
		{Event{Form: FormLen, N: [4]int64{1514}}, "len=1514"},
		{Event{Form: FormDemux, Name: "learning"}, "demux handler=learning"},
		{Event{Form: FormNative, Name: "repeater"}, "native handler=repeater"},
		{Event{Form: FormVM, Name: "vm-default", N: [4]int64{84, 48, 0, 1}}, "handler=vm-default steps=84 alloc=48 tiers=0/1"},
		{Event{Form: FormForward, N: [4]int64{3}}, "forward sends=3"},
		{Event{Form: FormLoadReject, Name: "verify: bad jump"}, "load-reject: verify: bad jump"},
		{Event{Form: FormRollback, Name: "probe mismatch"}, "rollback: probe mismatch"},
	}
	tr := New(Config{})
	e := tr.Engine(0)
	forms := map[Form]bool{}
	for i, r := range rows {
		forms[r.ev.Form] = true
		if got := r.ev.Text(); got != r.want {
			t.Errorf("form %d: Text() = %q, want %q", r.ev.Form, got, r.want)
		}
		r.ev.VT, r.ev.Trace, r.ev.Kind, r.ev.Node = int64(i+1), sampledID(1), KindMark, "n"
		e.Emit(r.ev)
	}
	for f := Form(0); f < formCount; f++ {
		if !forms[f] {
			t.Errorf("form %d has no wording row", f)
		}
	}
	tr.Flush()
	var text, chrome bytes.Buffer
	tr.RenderTranscript(&text)
	if err := WriteChromeAll(&chrome, []*Tracer{tr}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(text.String(), "\n"), "\n")
	if len(lines) != len(rows) {
		t.Fatalf("transcript has %d lines, want %d", len(lines), len(rows))
	}
	for i, r := range rows {
		want := "mark    n"
		if r.want != "" {
			want += " " + r.want
		}
		if !strings.HasSuffix(lines[i], want) {
			t.Errorf("transcript line %d = %q, want suffix %q", i, lines[i], want)
		}
		if arg := `"detail":"` + r.want + `"`; !strings.Contains(chrome.String(), arg) {
			t.Errorf("chrome export lacks %s", arg)
		}
	}
}

func TestVMHistObservesSpans(t *testing.T) {
	tr := New(Config{})
	var got []float64
	tr.SetVMHist(obsFunc(func(v float64) { got = append(got, v) }))
	e := tr.Engine(0)
	e.Emit(Event{VT: 1, Trace: sampledID(1), Kind: KindVM, Node: "br", Dur: 111})
	e.Emit(Event{VT: 2, Trace: sampledID(1), Kind: KindSend, Node: "br"})
	e.Emit(Event{VT: 3, Trace: sampledID(1), Kind: KindVM, Node: "br", Dur: 222})
	tr.Flush()
	if len(got) != 2 || got[0] != 111 || got[1] != 222 {
		t.Fatalf("vm histogram observed %v, want [111 222]", got)
	}
}

type obsFunc func(float64)

func (f obsFunc) Observe(v float64) { f(v) }

func TestChromeExportLints(t *testing.T) {
	tr := New(Config{})
	e := tr.Engine(0)
	id := sampledID(3)
	e.Emit(Event{VT: 1000, Trace: id, Kind: KindSend, Node: "h1.eth0", Form: FormLen, N: [4]int64{64}})
	e.Emit(Event{VT: 1500, Trace: id, Kind: KindWire, Node: "s0", Dur: 600, Form: FormLen, N: [4]int64{64}})
	e.Emit(Event{VT: 2100, Trace: id, Kind: KindVM, Node: "br", Dur: 400, Form: FormNative, Name: `"x"`})
	tr.Flush()
	var buf bytes.Buffer
	if err := WriteChromeAll(&buf, []*Tracer{tr}); err != nil {
		t.Fatal(err)
	}
	if err := LintChrome(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("self-produced trace fails lint: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{`"thread_name"`, `"ph":"b"`, `"ph":"e"`, `"ph":"i"`, `"displayTimeUnit":"ns"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome export missing %s:\n%s", want, out)
		}
	}
}

func TestWriteChromeAllMergesMonotone(t *testing.T) {
	mk := func(vts ...int64) *Tracer {
		tr := New(Config{})
		e := tr.Engine(0)
		for i, vt := range vts {
			e.Emit(Event{VT: vt, Trace: sampledID(uint64(i + 1)), Kind: KindVM, Node: "br", Dur: 50})
		}
		tr.Flush()
		return tr
	}
	// Interleaved virtual times across the two tracers: the combined
	// document must still be globally ts-sorted.
	a, b := mk(10, 300, 900), mk(5, 400, 800)
	var buf bytes.Buffer
	if err := WriteChromeAll(&buf, []*Tracer{a, b}); err != nil {
		t.Fatal(err)
	}
	if err := LintChrome(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("multi-tracer export fails lint: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), `"pid":2`) {
		t.Fatalf("second tracer did not get its own pid:\n%s", buf.String())
	}
}

func TestLintChromeRejects(t *testing.T) {
	cases := map[string]string{
		"bad json":         `{"traceEvents":[`,
		"missing name":     `{"traceEvents":[{"ph":"i","ts":1}]}`,
		"unknown phase":    `{"traceEvents":[{"name":"x","ph":"q","ts":1}]}`,
		"backwards ts":     `{"traceEvents":[{"name":"x","ph":"i","ts":5},{"name":"y","ph":"i","ts":4}]}`,
		"unmatched begin":  `{"traceEvents":[{"name":"x","ph":"b","id":"1","ts":1}]}`,
		"end before begin": `{"traceEvents":[{"name":"x","ph":"e","id":"1","ts":1}]}`,
	}
	for label, doc := range cases {
		if err := LintChrome(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: lint accepted %s", label, doc)
		}
	}
	if err := LintChrome(strings.NewReader(`{"traceEvents":[]}`)); err != nil {
		t.Errorf("empty trace rejected: %v", err)
	}
}
