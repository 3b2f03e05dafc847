// Command bench is the repository's benchmark: six long-running workloads
// driven through the simulator's public API and timed from outside, seven
// end-to-end metrics per workload, and an outside-in ledger of per-layer
// metrics. See README.md in this directory.
//
//	go run ./bench run [-seed N] [-scale F] [-trace FILE] [-json FILE]
//	go run ./bench run -workload NAME -seconds S -trace 0|1   (BENCHMARK.json's command)
//	go run ./bench compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bench run [-workload NAME] [-seed N] [-scale F] [-seconds S] [-trace 0|1|FILE] [-json FILE]\n       bench compare A.json B.json")
	os.Exit(2)
}

// run is one invocation's report; a report file holds a list of them.
type run struct {
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       uint64    `json:"seed"`
	Scale      float64   `json:"scale"`
	Seconds    float64   `json:"seconds"`
	WallS      float64   `json:"wall_s"`
	Workloads  []*result `json:"workloads"`
}

type reportFile struct {
	Schema string `json:"schema"`
	Runs   []run  `json:"runs"`
}

const reportSchema = "activebridge-bench/v1"

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	only := fs.String("workload", "", "run this workload only and print the driver's JSON result as the last line")
	seed := fs.Uint64("seed", 1, "seed of the locality-tree stream, the stp-churn cut schedule and the fwd-observed trace sampler")
	scale := fs.Float64("scale", 1, "multiplies the simulated work of every slice")
	seconds := fs.Float64("seconds", 0, "host seconds each window measures; 0 measures exactly 40 slices")
	trace := fs.String("trace", "0", "1 adds the traced pass and the per-layer metrics; a file name also writes its spans there as Chrome trace-event JSON")
	jsonOut := fs.String("json", "", "append this run's report to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("run: unexpected argument %q", fs.Arg(0))
	}
	if *scale <= 0 || *seconds < 0 {
		return fmt.Errorf("run: -scale must be positive and -seconds not negative")
	}
	man, err := loadManifest()
	if err != nil {
		return err
	}
	if err := man.agrees(); err != nil {
		return err
	}
	defs := workloads
	if *only != "" {
		def := findWorkload(*only)
		if def == nil {
			return fmt.Errorf("run: unknown workload %q", *only)
		}
		defs = []workloadDef{*def}
	}
	opts := runOpts{seed: *seed, scale: *scale, budget: time.Duration(*seconds * float64(time.Second))}
	if *trace != "0" && *trace != "" {
		opts.rec = newSpanRecorder()
	}

	start := time.Now()
	r := run{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Scale: *scale, Seconds: *seconds,
	}
	fmt.Printf("bench: seed %d, scale %g, %s, nproc %d, GOMAXPROCS %d, commit %s\n", r.Seed, r.Scale, r.GoVersion, r.NProc, r.GOMAXPROCS, r.Commit)
	for i := range defs {
		res, err := runWorkload(&defs[i], opts)
		if err != nil {
			return err
		}
		if err := res.complete(); err != nil {
			return err
		}
		r.Workloads = append(r.Workloads, res)
		printResult(res)
	}
	r.WallS = time.Since(start).Seconds()
	if opts.rec != nil {
		printLayerTable(opts.rec.spans)
		if *trace != "1" {
			if err := writeFileWith(*trace, func(f *os.File) error { return writeChrome(f, opts.rec.spans) }); err != nil {
				return err
			}
		}
	}
	if *jsonOut != "" {
		if err := appendRun(*jsonOut, r); err != nil {
			return err
		}
	}
	var failed []string
	for _, res := range r.Workloads {
		if !res.Correct {
			failed = append(failed, res.Workload)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("checks failed on %s", strings.Join(failed, ", "))
	}
	if *only != "" {
		return printDriverLine(r.Workloads[0], man, opts.rec != nil)
	}
	return nil
}

// commit names the source being measured, from the version-control stamp
// `go build` leaves in the binary (`go run` leaves none).
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

func writeFileWith(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func readReport(path string) (*reportFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf reportFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, reportSchema)
	}
	return &rf, nil
}

// appendRun adds a run to a report file, creating the file if need be, so
// that repeating a command with the same -json collects its runs.
func appendRun(path string, r run) error {
	rf, err := readReport(path)
	if os.IsNotExist(err) {
		rf, err = &reportFile{Schema: reportSchema}, nil
	}
	if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, r)
	return writeFileWith(path, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		return enc.Encode(rf)
	})
}

func printResult(res *result) {
	verdict := "correct"
	if !res.Correct {
		verdict = "INCORRECT"
	}
	fmt.Printf("\n== %s: %s, %d ops attempted, %d failed\n", res.Workload, verdict, res.Attempted, res.Failed)
	for _, c := range res.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Printf("   check %s %s %s\n", mark, c.Name, c.Detail)
	}
	for _, d := range endToEnd {
		note := ""
		if d.Name == "host_ns_per_op" {
			note = fmt.Sprintf(" (lower decile of %d slices)", res.Slices)
		}
		fmt.Printf("   %-36s %16.6g %-5s%s\n", d.Name, res.EndToEnd[d.Name], d.Unit, note)
	}
	if res.PerLayer == nil {
		return
	}
	fmt.Println("   -- per layer; times are outside-in estimates from isolated drivers, 0 = does not apply")
	for _, d := range perLayer {
		fmt.Printf("   %-36s %16.6g %s\n", d.Name, res.PerLayer[d.Name], d.Unit)
	}
}

// printLayerTable prints, per workload, the self time of every layer's
// spans in the traced pass: a span's duration minus what its children
// cover, so the rows of one workload add up to its root span.
func printLayerTable(spans []span) {
	self := selfTimes(spans)
	type key struct{ workload, layer string }
	sum := map[key]int64{}
	total := map[string]int64{}
	var order []string
	for i, s := range spans {
		if s.Parent < 0 {
			order = append(order, s.Workload)
			total[s.Workload] = s.End - s.Start
		}
		sum[key{s.Workload, layerOf(s.Name)}] += self[i]
	}
	fmt.Println("\n== traced pass: self time per layer (host ms; outside-in estimates, not gated)")
	for _, w := range order {
		var layers []string
		var covered int64
		for k, v := range sum {
			if k.workload == w {
				layers = append(layers, k.layer)
				covered += v
			}
		}
		sort.Strings(layers)
		fmt.Printf("   %-14s span %9.1f ms, layers sum to %5.1f%%\n", w, float64(total[w])/1e6, 100*float64(covered)/float64(total[w]))
		for _, l := range layers {
			v := sum[key{w, l}]
			fmt.Printf("      %-12s %9.1f ms %5.1f%%\n", l, float64(v)/1e6, 100*float64(v)/float64(total[w]))
		}
	}
}

// printDriverLine prints the one JSON object BENCHMARK.json's driver
// reads: the declared end-to-end metrics, or the per-layer ones when
// traced.
func printDriverLine(res *result, man *manifest, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	declared, got := man.EndToEnd, res.EndToEnd
	if traced {
		declared, got = man.PerLayer, res.PerLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range declared {
		out.Metrics[d.Name] = value{got[d.Name], d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}
