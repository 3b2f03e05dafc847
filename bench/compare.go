package main

import (
	"fmt"
	"math"
)

// cmdCompare prints one row per (workload, end-to-end metric) for two
// report files, A the base and B the candidate, each holding one or more
// runs, and fails if any row regressed.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		usage()
	}
	a, err := readReport(args[0])
	if err != nil {
		return err
	}
	b, err := readReport(args[1])
	if err != nil {
		return err
	}
	rows := compareRuns(a.Runs, b.Runs)
	fmt.Printf("%-14s %-20s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "spread", "verdict")
	regressed := 0
	for _, r := range rows {
		fmt.Printf("%-14s %-20s %14.8g %14.8g %9.4f %6.1f%% %6.1f%%  %s\n",
			r.workload, r.metric, r.a, r.b, ratio(r.b, r.a), 100*r.bound, 100*r.spread, r.verdict)
		if r.verdict == "regressed" {
			regressed++
		}
	}
	fmt.Printf("base %s: %d run(s); candidate %s: %d run(s); ratios are B over A\n", args[0], len(a.Runs), args[1], len(b.Runs))
	if regressed > 0 {
		return fmt.Errorf("%d of %d rows regressed", regressed, len(rows))
	}
	return nil
}

type compareRow struct {
	workload, metric string
	a, b             float64 // medians over each side's runs
	bound, spread    float64
	verdict          string // ok, regressed or unresolved
}

// values collects one metric of one workload over a file's runs.
func values(runs []run, workload, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		for _, w := range r.Workloads {
			if v, ok := w.EndToEnd[metric]; ok && w.Workload == workload {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// spreadOf is the run-to-run spread of one side as a share of its median:
// the distance between the quartiles, or between the extremes when there
// are too few runs for quartiles. One run has no spread to show.
func spreadOf(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	lo, hi := quantile(vs, 0), quantile(vs, 1)
	if len(vs) >= 4 {
		lo, hi = quantile(vs, 0.25), quantile(vs, 0.75)
	}
	return ratio(hi-lo, math.Abs(median(vs)))
}

func compareRuns(a, b []run) []compareRow {
	var rows []compareRow
	for _, def := range workloads {
		for _, md := range endToEnd {
			va, vb := values(a, def.name, md.Name), values(b, def.name, md.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := compareRow{workload: def.name, metric: md.Name, a: median(va), b: median(vb), bound: md.Bound}
			row.spread = math.Max(spreadOf(va), spreadOf(vb))
			row.verdict = verdict(md, va, vb, row.spread)
			rows = append(rows, row)
		}
	}
	return rows
}

// verdict applies the benchmark's rule: the candidate's median may not be
// worse than the base's by more than the bound (nor by more than the
// metric's absolute floor); where the runs of either side spread wider
// than the bound the row is unresolved, unless every candidate run is at
// least as good as every base run.
func verdict(md metricDef, va, vb []float64, spread float64) string {
	worse := median(vb) - median(va) // positive is worse
	dominates := quantile(vb, 1) <= quantile(va, 0)
	if md.Better == "higher" {
		worse = -worse
		dominates = quantile(vb, 0) >= quantile(va, 1)
	}
	allowed := math.Max(md.Bound*math.Abs(median(va)), md.Floor)
	switch {
	case dominates:
		return "ok"
	case spread > md.Bound && spread*math.Abs(median(va)) > md.Floor:
		return "unresolved"
	case worse > allowed:
		return "regressed"
	}
	return "ok"
}
