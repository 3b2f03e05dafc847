package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteChromeAll writes the merged transcripts (Flush first) of several
// tracers — typically every net attached to a Hub — as one Chrome
// trace-event JSON document, loadable in Perfetto / chrome://tracing,
// with one process (pid) per tracer, in slice order. Events are globally
// sorted by virtual timestamp so the document passes LintChrome
// regardless of how the per-net transcripts interleave.
//
// Virtual nanoseconds map onto the format's microsecond ts field with
// three decimals, so one simulated nanosecond is one displayed
// nanosecond. Instants export as ph "i"; spans export as async begin/
// end pairs (ph "b"/"e") keyed by the trace ID, because spans of one
// node legitimately overlap (the bridge CPU pipelines frames) and the
// synchronous B/E form demands strict nesting. Every node gets its own
// tid plus a thread_name metadata record.
func WriteChromeAll(w io.Writer, tracers []*Tracer) error {
	type rec struct {
		ts  int64 // virtual ns
		ord int   // emission order, for a stable sort
		js  string
	}
	var recs []rec
	var meta []string
	esc := func(s string) string {
		b, _ := json.Marshal(s)
		return string(b)
	}
	ts := func(ns int64) string { return fmt.Sprintf("%d.%03d", ns/1000, ns%1000) }
	ord := 0
	for pi, t := range tracers {
		pid := pi + 1
		// Stable node → tid assignment, sorted by name within the pid.
		tids := map[string]int{}
		for i := range t.merged {
			if _, ok := tids[t.merged[i].Node]; !ok {
				tids[t.merged[i].Node] = 0
			}
		}
		names := make([]string, 0, len(tids))
		for n := range tids { //ab:mapiter-ok — sorted immediately below
			names = append(names, n)
		}
		sort.Strings(names)
		for i, n := range names {
			tids[n] = i + 1
			meta = append(meta, fmt.Sprintf(
				`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
				pid, i+1, esc(n)))
		}
		for i := range t.merged {
			ev := &t.merged[i]
			tid := tids[ev.Node]
			args := fmt.Sprintf(`{"trace":"%016x","node":%s,"detail":%s}`, ev.Trace, esc(ev.Node), esc(ev.Text()))
			if ev.Dur > 0 {
				// Async ids are matched across the whole document, so
				// prefix the pid: two nets built from the same topology
				// mint identical trace IDs.
				id := fmt.Sprintf("%d-%x", pid, ev.Trace)
				recs = append(recs, rec{ev.VT, ord, fmt.Sprintf(
					`{"name":%s,"cat":"span","ph":"b","id":"%s","ts":%s,"pid":%d,"tid":%d,"args":%s}`,
					esc(ev.Kind.String()), id, ts(ev.VT), pid, tid, args)})
				recs = append(recs, rec{ev.VT + ev.Dur, ord, fmt.Sprintf(
					`{"name":%s,"cat":"span","ph":"e","id":"%s","ts":%s,"pid":%d,"tid":%d}`,
					esc(ev.Kind.String()), id, ts(ev.VT+ev.Dur), pid, tid)})
			} else {
				recs = append(recs, rec{ev.VT, ord, fmt.Sprintf(
					`{"name":%s,"cat":"event","ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d,"args":%s}`,
					esc(ev.Kind.String()), ts(ev.VT), pid, tid, args)})
			}
			ord++
		}
	}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].ts != recs[j].ts {
			return recs[i].ts < recs[j].ts
		}
		return recs[i].ord < recs[j].ord
	})

	if _, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(s string) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := io.WriteString(w, s)
		return err
	}
	for _, m := range meta {
		if err := emit(m); err != nil {
			return err
		}
	}
	for i := range recs {
		if err := emit(recs[i].js); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// chromeEvent is the subset of the trace-event schema the linter reads.
type chromeEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	ID   string          `json:"id"`
	Ts   json.Number     `json:"ts"`
	Pid  json.RawMessage `json:"pid"`
	Tid  json.RawMessage `json:"tid"`
}

// LintChrome validates a Chrome trace-event document the way Lint in
// internal/metrics validates an exposition document: the JSON must decode,
// every event needs a name and a known phase, non-metadata timestamps
// must be monotone non-decreasing in file order (virtual time never
// runs backwards), and async begin/end events must match one-to-one
// per (id, name). Returns nil for an empty-but-well-formed trace.
func LintChrome(r io.Reader) error {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("chrome trace: bad JSON: %w", err)
	}
	prev := -1.0
	open := map[string]int{}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("chrome trace: event %d: missing name", i)
		}
		switch ev.Ph {
		case "M":
			continue // metadata carries no timestamp
		case "i", "b", "e", "B", "E", "X":
		default:
			return fmt.Errorf("chrome trace: event %d (%s): unknown phase %q", i, ev.Name, ev.Ph)
		}
		ts, err := ev.Ts.Float64()
		if err != nil {
			return fmt.Errorf("chrome trace: event %d (%s): bad ts %q", i, ev.Name, ev.Ts)
		}
		if ts < prev {
			return fmt.Errorf("chrome trace: event %d (%s): ts %v before predecessor %v", i, ev.Name, ts, prev)
		}
		prev = ts
		switch ev.Ph {
		case "b":
			if ev.ID == "" {
				return fmt.Errorf("chrome trace: event %d (%s): async begin without id", i, ev.Name)
			}
			open[ev.ID+"\x00"+ev.Name]++
		case "e":
			k := ev.ID + "\x00" + ev.Name
			if open[k] == 0 {
				return fmt.Errorf("chrome trace: event %d (%s): async end without begin (id %s)", i, ev.Name, ev.ID)
			}
			open[k]--
		}
	}
	for k, n := range open { //ab:mapiter-ok — error selection only, any unbalanced key is a failure
		if n != 0 {
			return fmt.Errorf("chrome trace: %d unmatched async begin(s), e.g. %q", n, k)
		}
	}
	return nil
}
