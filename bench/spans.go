package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one harness-side interval around a call into a layer. Times
// are host nanoseconds since the recorder was created; Parent is an
// index into the recorder's spans, -1 for a workload's root span.
type span struct {
	Name     string
	Workload string
	Start    int64
	End      int64
	Parent   int
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced pass shares the traced pass's code.
type spanRecorder struct {
	epoch    time.Time
	workload string
	spans    []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{
		Name: name, Workload: r.workload, Parent: parent,
		Start: time.Since(r.epoch).Nanoseconds(), End: -1,
	})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.epoch).Nanoseconds()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may nest, abut or
// overlap; covered time is the length of the union of their intervals
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerOf maps a span name onto the row its self time is charged to: the
// named module for topo.* and layer.<module>[.detail] spans, sim.run for a
// slice (the engine's Run call, which holds every layer below it), and the
// harness's own bookkeeping for a workload's root span.
func layerOf(name string) string {
	if rest, ok := strings.CutPrefix(name, "layer."); ok {
		module, _, _ := strings.Cut(rest, ".")
		return module
	}
	switch {
	case name == "sim.run":
		return name
	case strings.HasPrefix(name, "topo."):
		return "topo"
	}
	return "harness"
}

// writeChrome writes the spans as Chrome trace-event JSON: one process
// per workload, one complete ("X") event per span, sorted by start.
func writeChrome(w io.Writer, spans []span) error {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })
	pids := map[string]int{}
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   json.Number       `json:"ts"`
		Dur  json.Number       `json:"dur,omitempty"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	us := func(ns int64) json.Number { return json.Number(fmt.Sprintf("%d.%03d", ns/1000, ns%1000)) }
	var meta, evs []event
	for _, i := range order {
		s := spans[i]
		pid, ok := pids[s.Workload]
		if !ok {
			pid = len(pids) + 1
			pids[s.Workload] = pid
			meta = append(meta, event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]string{"name": s.Workload}})
		}
		parent := ""
		if s.Parent >= 0 {
			parent = fmt.Sprintf("%d:%s", s.Parent, spans[s.Parent].Name)
		}
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: pid, Tid: 1,
			Args: map[string]string{"workload": s.Workload, "span": fmt.Sprint(i), "parent": parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]interface{}{
		"displayTimeUnit": "ns",
		"traceEvents":     append(meta, evs...),
	})
}
