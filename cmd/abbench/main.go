// abbench regenerates the tables and figures of the paper's evaluation
// from the scenario registry and prints them. It is only the table
// printer: the metrics and tracing planes are switched on and read
// through the SDK (activebridge.EnableMetrics/ServeMetrics,
// EnableTracing/WriteTrace).
//
//	-list          print every registered scenario and exit
//	-run regexp    run only scenarios whose names match
//	-parallel N    scenarios run concurrently (0 = one per core);
//	               outputs stay byte-identical to serial — only faster
//	-short         skip the slower parameter sweeps
//	-json          emit one entry per scenario (fingerprint, wall time,
//	               ok) as machine-readable JSON; timing that backs a
//	               claim is bench/'s job, not this tool's
//	-faults seed   apply the blanket chaos profile (1% loss, 0.2%
//	               corruption, 0.2% duplication on every segment) to
//	               every scenario, seeded for exact replay; injected
//	               totals land in the JSON "faults" section. Scenario
//	               self-checks may legitimately fail under chaos — the
//	               fingerprints stay deterministic per seed regardless
//
// All virtual-time metrics are deterministic and identical on any
// machine and any -parallel setting; the wall times in -json output
// measure this build on this machine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/switchware/activebridge/internal/experiments"
	"github.com/switchware/activebridge/internal/fault"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/scenario"
	"github.com/switchware/activebridge/internal/topo"
)

// scenarioResult is one registry scenario's outcome.
type scenarioResult struct {
	Name string `json:"name"`
	// Fingerprint digests the rendered virtual-time output; it must be
	// identical across machines, runs and parallelism levels.
	Fingerprint string `json:"fingerprint"`
	WallNs      int64  `json:"wall_ns"`
	OK          bool   `json:"ok"`
	Error       string `json:"error,omitempty"`
}

// faultReport is the chaos section of a report: the -faults seed plus
// the process-wide injected-fault totals across the whole batch.
type faultReport struct {
	Seed     uint64 `json:"seed"`
	Drops    uint64 `json:"drops"`
	Corrupts uint64 `json:"corrupts"`
	Dups     uint64 `json:"duplicates"`
	Flaps    uint64 `json:"flaps"`
	Crashes  uint64 `json:"crashes"`
	Restarts uint64 `json:"restarts"`
}

type benchReport struct {
	Schema    string           `json:"schema"`
	Scenarios []scenarioResult `json:"scenarios"`
	// Faults is present when -faults enabled the blanket chaos profile.
	Faults *faultReport `json:"faults,omitempty"`
}

func main() {
	short := flag.Bool("short", false, "skip the slower parameter sweeps")
	jsonOut := flag.Bool("json", false, "emit per-scenario results (fingerprint, wall time, ok) as JSON")
	list := flag.Bool("list", false, "list registered scenarios and exit")
	runPat := flag.String("run", "", "run only scenarios whose names match this regexp")
	parallel := flag.Int("parallel", 1, "scenarios run concurrently (0 = one per core)")
	faultsSeed := flag.Uint64("faults", 0, "apply the seeded blanket chaos profile to every scenario (0 = off)")
	flag.Parse()
	cost := netsim.DefaultCostModel()

	if *faultsSeed != 0 {
		topo.DefaultFaultProfile = &fault.Profile{
			Seed:  *faultsSeed,
			Model: fault.DefaultChaosModel(),
		}
		fault.ResetTotals()
	}

	experiments.RegisterAll()

	if *list {
		for _, s := range scenario.All() {
			slow := ""
			if s.Slow {
				slow = " [slow]"
			}
			fmt.Printf("%-28s %s%s\n", s.Name, s.Desc, slow)
		}
		return
	}

	scs := scenario.All()
	if *runPat != "" {
		// An explicit -run selection wins over -short: skipping a
		// scenario the user named would be silent success.
		var err error
		scs, err = scenario.Match(*runPat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abbench: %v\n", err)
			os.Exit(2)
		}
		if len(scs) == 0 {
			fmt.Fprintf(os.Stderr, "abbench: no scenario matches %q (try -list)\n", *runPat)
			os.Exit(2)
		}
	} else if *short {
		kept := scs[:0:0]
		for _, s := range scs {
			if !s.Slow {
				kept = append(kept, s)
			}
		}
		scs = kept
	}

	// faultsSection reports the injected-fault totals once the batch is
	// done. Only emitted when -faults turned the blanket profile on; the
	// counters are process-wide, so scenarios carrying their own fault
	// plans contribute too.
	faultsSection := func() *faultReport {
		if *faultsSeed == 0 {
			return nil
		}
		tot := fault.GrandTotals()
		return &faultReport{
			Seed: *faultsSeed, Drops: tot.Drops, Corrupts: tot.Corrupts,
			Dups: tot.Dups, Flaps: tot.Flaps,
			Crashes: tot.Crashes, Restarts: tot.Restarts,
		}
	}
	if *jsonOut {
		results := scenario.RunAll(scs, cost, *parallel)
		rep := benchReport{Schema: "abbench/v3"}
		for i := range results {
			r := &results[i]
			sr := scenarioResult{
				Name: r.Name, Fingerprint: r.Fingerprint,
				WallNs: r.Wall.Nanoseconds(), OK: r.OK(),
			}
			if r.Err != nil {
				sr.Error = r.Err.Error()
			} else if r.CheckErr != nil {
				sr.Error = "check: " + r.CheckErr.Error()
			}
			rep.Scenarios = append(rep.Scenarios, sr)
		}
		rep.Faults = faultsSection()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		// A failed scenario must fail the process in JSON mode too, so CI
		// cannot commit a BENCH_*.json with broken entries.
		for _, sr := range rep.Scenarios {
			if !sr.OK {
				fmt.Fprintf(os.Stderr, "abbench: %s: %s\n", sr.Name, sr.Error)
				os.Exit(1)
			}
		}
		return
	}

	fmt.Println("Active Bridging — reproduction of the evaluation (virtual-time simulator)")
	fmt.Println("paper: Alexander, Shaw, Nettles, Smith. MS-CIS-97-02 / SIGCOMM 1997")
	fmt.Println()

	// Stream each table as soon as it (and its predecessors) finish, so a
	// wedged scenario is visible by name rather than as a silent terminal.
	failed := 0
	scenario.RunEach(scs, cost, *parallel, func(r *scenario.Result) {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.Name, r.Err)
			failed++
			return
		}
		fmt.Println(r.Table)
		if r.CheckErr != nil {
			fmt.Fprintf(os.Stderr, "%s: check failed: %v\n", r.Name, r.CheckErr)
			failed++
		}
	})
	if fr := faultsSection(); fr != nil {
		fmt.Fprintf(os.Stderr, "faults (seed %d): dropped=%d corrupted=%d duplicated=%d flaps=%d crashes=%d restarts=%d\n",
			fr.Seed, fr.Drops, fr.Corrupts, fr.Dups, fr.Flaps, fr.Crashes, fr.Restarts)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "abbench: %d of %d scenarios failed\n", failed, len(scs))
		os.Exit(1)
	}
}
