package scenario

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/report"
)

// Result is one executed scenario.
type Result struct {
	Name string
	Desc string
	// Table is the scenario's rendered output (nil if Run failed).
	Table *report.Table
	// Fingerprint digests the rendered table; byte-identical output ⇒
	// identical fingerprint, regardless of runner parallelism.
	Fingerprint string
	// Err is the run error (including recovered panics).
	Err error
	// CheckErr names the expectations the run did not meet (Table.Err).
	CheckErr error
	// Wall is real elapsed time for this build on this machine; it is
	// the only non-deterministic field.
	Wall time.Duration
}

// OK reports whether the scenario ran and validated.
func (r *Result) OK() bool { return r.Err == nil && r.CheckErr == nil }

// runOne executes a single scenario, converting panics into errors so
// one broken scenario cannot take down a batch.
func runOne(s *Scenario, cost netsim.CostModel) (res Result) {
	res.Name = s.Name
	res.Desc = s.Desc
	start := time.Now() //ab:wallclock-ok operator-facing wall measurement, never fed into the simulation
	defer func() {
		res.Wall = time.Since(start) //ab:wallclock-ok same: reported, not simulated state
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("scenario %s: panic: %v", s.Name, p)
		}
	}()
	tbl, err := s.Run(cost)
	res.Table = tbl
	res.Err = err
	if err == nil {
		res.Fingerprint = Fingerprint(tbl)
		res.CheckErr = tbl.Err()
	}
	return res
}

// RunAll executes the scenarios with at most parallel workers and
// returns results in input order. parallel < 1 means one worker per
// core. Each scenario builds its own simulation (single-threaded, or
// sharded under topo.DefaultShards), so every virtual-time output and
// fingerprint is byte-identical to serial execution — parallelism buys
// wall-clock only.
func RunAll(scs []*Scenario, cost netsim.CostModel, parallel int) []Result {
	return RunEach(scs, cost, parallel, nil)
}

// RunEach is RunAll with a streaming hook: emit is called once per
// scenario, in input order, as soon as that scenario and all its
// predecessors have finished — so a consumer can print results while
// later scenarios are still running. A nil emit just runs the batch.
func RunEach(scs []*Scenario, cost netsim.CostModel, parallel int, emit func(*Result)) []Result {
	if parallel < 1 {
		parallel = runtime.NumCPU()
	}
	if parallel > len(scs) {
		parallel = len(scs)
	}
	results := make([]Result, len(scs))
	if parallel <= 1 {
		for i, s := range scs {
			results[i] = runOne(s, cost)
			if emit != nil {
				emit(&results[i])
			}
		}
		return results
	}
	var wg sync.WaitGroup
	work := make(chan int)
	finished := make(chan int, len(scs))
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = runOne(scs[i], cost)
				finished <- i
			}
		}()
	}
	go func() {
		for i := range scs {
			work <- i
		}
		close(work)
	}()
	// Receive completions and emit in input order; the channel receive
	// orders each emit after the worker's write of results[i].
	done := make([]bool, len(scs))
	next := 0
	for range scs {
		done[<-finished] = true
		for next < len(scs) && done[next] {
			if emit != nil {
				emit(&results[next])
			}
			next++
		}
	}
	wg.Wait()
	return results
}
