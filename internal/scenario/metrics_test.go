// Metrics-plane acceptance: enabling telemetry must never move a
// virtual-time output (golden identity at any shard count), and the
// scrape surface must serve well-formed documents while a mega scenario
// is executing.
package scenario_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/scenario"
	"github.com/switchware/activebridge/internal/topo"
)

// TestMetricsOnMatchesGolden reruns the entire registry with the
// metrics plane enabled and requires byte-identical output against the
// metrics-off serial run. Under the CI sharded job (AB_SHARDS=4) this
// pins metrics-on identity on the sharded engine too.
func TestMetricsOnMatchesGolden(t *testing.T) {
	serial := runSerial()
	prev := metrics.SetEnabled(true)
	defer metrics.SetEnabled(prev)
	results := scenario.RunAll(scenario.All(), netsim.DefaultCostModel(), 1)
	if len(results) != len(serial) {
		t.Fatalf("result counts differ: %d vs %d", len(results), len(serial))
	}
	for i := range serial {
		s, m := &serial[i], &results[i]
		if !m.OK() {
			t.Errorf("%s (metrics on): run=%v check=%v", m.Name, m.Err, m.CheckErr)
			continue
		}
		if s.Fingerprint != m.Fingerprint {
			t.Errorf("%s: metrics-on fingerprint %s != metrics-off %s", s.Name, m.Fingerprint, s.Fingerprint)
		}
		if s.Table.String() != m.Table.String() {
			t.Errorf("%s: metrics-on table bytes differ from metrics-off", s.Name)
		}
	}
	// The final snapshots must cover every instrumented net with a sane
	// event accounting: per-shard event totals that add up to something
	// and spread with a min/max balance in (0, 1].
	snaps := metrics.DefaultHub.SnapshotAll()
	if len(snaps) == 0 {
		t.Fatal("no metrics snapshots after an instrumented batch")
	}
	var perShard []uint64
	found := false
	for _, snap := range snaps {
		if snap.Net != "fattree256" {
			continue
		}
		found = true
		for _, p := range snap.Series {
			if p.Name == "ab_shard_events_total" {
				perShard = append(perShard, uint64(p.Value))
			}
		}
	}
	if !found {
		t.Fatal("fattree256 not in metrics snapshots")
	}
	var events, min, max uint64
	for i, v := range perShard {
		events += v
		if i == 0 || v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if events == 0 || len(perShard) < 1 || min == 0 || min > max {
		t.Errorf("implausible fattree256 event accounting: per-shard events %v", perShard)
	}
}

// TestMetricsOnShardedMegaMatchesGolden pins metrics-on identity at 2
// and 4 shards for the scenarios that genuinely cross shards (small
// nets fall back to serial inside Build, so the mega set is the whole
// sharded surface).
func TestMetricsOnShardedMegaMatchesGolden(t *testing.T) {
	if topo.DefaultShards != 1 {
		t.Skip("AB_SHARDS active: TestMetricsOnMatchesGolden already pins the sharded metrics run")
	}
	serial := runSerial()
	byName := map[string]*scenario.Result{}
	for i := range serial {
		byName[serial[i].Name] = &serial[i]
	}
	prev := metrics.SetEnabled(true)
	defer metrics.SetEnabled(prev)
	scs, err := scenario.Match("^scale-(fattree256|ring8-upgrade|storm-containment)$")
	if err != nil || len(scs) != 3 {
		t.Fatalf("mega scenario selection: %v (%d found)", err, len(scs))
	}
	for _, shards := range []int{2, 4} {
		topo.DefaultShards = shards
		results := scenario.RunAll(scs, netsim.DefaultCostModel(), 1)
		topo.DefaultShards = 1
		for i := range results {
			m := &results[i]
			s := byName[m.Name]
			if s == nil {
				t.Fatalf("%s: no serial reference", m.Name)
			}
			if !m.OK() {
				t.Errorf("%s (metrics on, shards=%d): run=%v check=%v", m.Name, shards, m.Err, m.CheckErr)
				continue
			}
			if s.Fingerprint != m.Fingerprint {
				t.Errorf("%s: shards=%d metrics-on fingerprint %s != serial metrics-off %s",
					m.Name, shards, m.Fingerprint, s.Fingerprint)
			}
		}
	}
}

// TestLiveScrapeDuringFatTree drives scale-fattree256 in the background
// and scrapes /metrics and /snapshot through its registry's HTTP
// surface while it executes: the text must pass the Prometheus lint,
// the JSON must decode strictly into HubSnapshot with every net named
// and carrying series, and neither may perturb the run (the final
// fingerprint still matches the golden). Run under -race (the CI
// scenario jobs) this also proves scraping shares no unsynchronized
// state with a sharded simulation.
func TestLiveScrapeDuringFatTree(t *testing.T) {
	runSerial() // ensure the registry is populated
	s, ok := scenario.Lookup("scale-fattree256")
	if !ok {
		t.Fatal("scale-fattree256 not registered")
	}
	prev := metrics.SetEnabled(true)
	defer metrics.SetEnabled(prev)

	srv := httptest.NewServer(metrics.Handler(metrics.DefaultHub))
	defer srv.Close()

	type outcome struct {
		fp  string
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		tbl, err := s.Run(netsim.DefaultCostModel())
		done <- outcome{fp: scenario.Fingerprint(tbl), err: err}
	}()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	// Poll until the net's series are being served (the registry
	// attaches at Build, early in the scenario's life).
	deadline := time.Now().Add(30 * time.Second)
	var text string
	for {
		text = get("/metrics")
		if strings.Contains(text, `ab_shard_events_total{net="fattree256"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fattree256 series never appeared on /metrics; last scrape:\n%.2000s", text)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := metrics.LintString(text); err != nil {
		t.Fatalf("/metrics fails lint mid-run: %v", err)
	}
	var hs metrics.HubSnapshot
	dec := json.NewDecoder(strings.NewReader(get("/snapshot")))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hs); err != nil {
		t.Fatalf("/snapshot does not decode as HubSnapshot mid-run: %v", err)
	}
	found := false
	for _, n := range hs.Nets {
		if n.Net == "" {
			t.Errorf("/snapshot carries a net with an empty name")
		}
		if len(n.Series) == 0 {
			t.Errorf("/snapshot net %q has no series", n.Net)
		}
		if n.Net == "fattree256" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fattree256 missing from /snapshot (%d nets)", len(hs.Nets))
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("scenario failed under scraping: %v", res.err)
	}
	if want := goldenFingerprints["scale-fattree256"]; res.fp != want {
		t.Errorf("scraped run fingerprint %s != golden %s", res.fp, want)
	}

	// Post-run, the final snapshot must carry the instrumented
	// workloads and bridge counters.
	text = get("/metrics")
	for _, series := range []string{
		"ab_ttcp_delivered_bytes_total", "ab_ping_rtt_ms_bucket",
		"ab_bridge_frames_in_total", "ab_bridge_switchlet_info",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("final /metrics missing %s", series)
		}
	}
	if err := metrics.LintString(text); err != nil {
		t.Errorf("final /metrics fails lint: %v", err)
	}
}
