package tft

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/progress"
	"github.com/tftproject/tft/internal/simnet"
	"github.com/tftproject/tft/internal/trace"
)

// The observability acceptance bar: a DNS run yields at least one complete
// per-request trace tree — client probe → super proxy request → exit-node
// attempt → node-side resolve and fetch — and the Chrome trace_event
// export of those spans is structurally valid (Perfetto-loadable).
func TestRunDNSTraceChain(t *testing.T) {
	run, err := RunDNS(context.Background(), Options{Seed: 21, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	spans := run.Spans()
	if len(spans) == 0 {
		t.Fatal("run retained no spans")
	}

	byID := make(map[trace.SpanID]trace.SpanData, len(spans))
	for _, d := range spans {
		byID[d.SpanID] = d
	}
	// ancestors resolves the parent chain's names, innermost-first.
	ancestors := func(d trace.SpanData) []string {
		var names []string
		for p := d.Parent; p != 0; {
			pd, ok := byID[p]
			if !ok {
				break
			}
			names = append(names, pd.Name)
			p = pd.Parent
		}
		return names
	}
	chainOK := func(names []string) bool {
		return len(names) == 3 && names[0] == "proxy.attempt" &&
			names[1] == "proxy.get" && names[2] == "probe.dns"
	}
	fetches, resolves := 0, 0
	for _, d := range spans {
		switch d.Name {
		case "node.fetch":
			if chainOK(ancestors(d)) {
				fetches++
			}
		case "node.resolve":
			if chainOK(ancestors(d)) {
				resolves++
			}
		}
	}
	if fetches == 0 {
		t.Fatal("no node.fetch span with the full probe.dns → proxy.get → proxy.attempt chain")
	}
	if resolves == 0 {
		t.Fatal("no node.resolve span with the full chain (RemoteDNS probes must trace resolution)")
	}

	// The Chrome export of a real run's spans must be structurally valid.
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *int64         `json:"ts"`
			Dur  *int64         `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *uint64        `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != len(spans) {
		t.Fatalf("exported %d events for %d spans", len(f.TraceEvents), len(spans))
	}
	for i, ev := range f.TraceEvents {
		if ev.Name == "" || ev.Ph != "X" || ev.Ts == nil || ev.Dur == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d structurally incomplete: %+v", i, ev)
		}
		if *ev.Dur < 0 {
			t.Fatalf("event %d has negative duration: %+v", i, ev)
		}
		if ev.Args["trace_id"] == "" || ev.Args["span_id"] == "" {
			t.Fatalf("event %d missing ids: %+v", i, ev)
		}
	}
}

// The flight-recorder acceptance bar: a DNS run observed by a live Sampler
// produces at least one sample (Stop's final read guarantees it even when
// the crawl beats the interval), and the RunManifest's final counts agree
// with both the crawl-engine metrics and the run's own Stats.
func TestRunDNSFlightRecorder(t *testing.T) {
	tracker := progress.NewTracker()
	reg := metrics.NewRegistry()
	opts := Options{Seed: 21, Scale: 0.01}
	opts.Crawl.Progress = tracker
	opts.Crawl.Metrics = reg

	sampler := &progress.Sampler{
		Tracker:  tracker,
		Clock:    simnet.Real{},
		Interval: 20 * time.Millisecond,
		Metrics:  reg,
	}
	if err := sampler.Start(); err != nil {
		t.Fatal(err)
	}
	run, err := RunDNS(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sampler.Stop(); err != nil {
		t.Fatal(err)
	}

	if len(sampler.Samples()) == 0 {
		t.Fatal("sampler retained no samples (Stop must take a final one)")
	}

	man := run.Manifest()
	if man == nil {
		t.Fatal("run has no manifest")
	}
	if man.Experiment != "dns" || man.Seed != 21 || man.Scale != 0.01 {
		t.Fatalf("manifest identity = %+v", man)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("crawl_sessions_total"); got != man.Sessions {
		t.Errorf("manifest sessions %d != crawl_sessions_total %d", man.Sessions, got)
	}
	if got := snap.Counter("crawl_nodes_total"); got != man.UniqueNodes {
		t.Errorf("manifest unique nodes %d != crawl_nodes_total %d", man.UniqueNodes, got)
	}
	var st core.Stats = run.Stats()
	if man.Sessions != int64(st.Sessions) || man.UniqueNodes != int64(st.UniqueNodes) {
		t.Errorf("manifest %+v disagrees with run stats %+v", man, st)
	}
	checkOutcomeInvariants(t, run)
	if man.Probes < man.NodesDone {
		t.Errorf("probes %d < nodes done %d", man.Probes, man.NodesDone)
	}
	if man.Watermarks.PeakHeapBytes == 0 {
		t.Error("manifest watermarks empty")
	}
	if man.DurationSeconds < 0 || man.FinishedAt.Before(man.StartedAt) {
		t.Errorf("manifest time range invalid: %+v", man)
	}

	// WriteManifest renders valid JSON carrying the same counts.
	var buf bytes.Buffer
	if err := run.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	var back progress.RunManifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest JSON invalid: %v", err)
	}
	if back.Sessions != man.Sessions || back.NodesDone != man.NodesDone {
		t.Errorf("round-tripped manifest %+v != %+v", back, man)
	}

	// A second run on the same Options reuses the tracker: Begin must reset
	// the per-run counts so the new manifest doesn't double-count. (Counts
	// are compared within the run, not across runs — the concurrent stop
	// rule makes per-run totals scheduling-dependent.)
	run2, err := RunDNS(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcomeInvariants(t, run2)
}

// observations counts a run's measured nodes.
func observations(r Run) int {
	switch r := r.(type) {
	case *DNSRun:
		return len(r.Dataset.Observations)
	case *HTTPRun:
		return len(r.Dataset.Observations)
	case *TLSRun:
		return len(r.Dataset.Observations)
	case *MonitorRun:
		return len(r.Dataset.Observations)
	case *SMTPRun:
		return len(r.Dataset.Observations)
	}
	panic(fmt.Sprintf("unexpected run type %T", r))
}

// checkOutcomeInvariants checks the manifest's final counts against the
// run: every measured node is one observation, every session ends in
// exactly one outcome, and the faults the manifest counts are the ones
// Stats reports as the error budget.
func checkOutcomeInvariants(t *testing.T, r Run) {
	t.Helper()
	m := r.Manifest()
	if obs := int64(observations(r)); m.NodesDone != obs {
		t.Errorf("%s: manifest nodes done %d != observations %d", r.Name(), m.NodesDone, obs)
	}
	if sum := m.NodesDone + m.Duplicates + m.Failures + m.Discarded + m.Faults; m.Sessions != sum {
		t.Errorf("%s: sessions %d != done %d + duplicates %d + failures %d + discarded %d + faults %d",
			r.Name(), m.Sessions, m.NodesDone, m.Duplicates, m.Failures, m.Discarded, m.Faults)
	}
	if st := r.Stats(); m.Faults != int64(st.Faulted) {
		t.Errorf("%s: manifest faults %d != stats faulted %d", r.Name(), m.Faults, st.Faulted)
	}
}

// TestManifestOutcomeInvariants checks the outcome invariants for every
// registered experiment, fault-free and under lossy-links, at the default
// worker count.
func TestManifestOutcomeInvariants(t *testing.T) {
	t.Parallel()
	for _, name := range Experiments() {
		for _, chaos := range []string{"", "lossy-links"} {
			key := name
			if chaos != "" {
				key += "/" + chaos
			}
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				opts := Options{Seed: 21, Scale: 0.01, Chaos: chaos}
				opts.Crawl.MaxSessions = 1000
				r, err := RunExperiment(context.Background(), name, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkOutcomeInvariants(t, r)
			})
		}
	}
}
