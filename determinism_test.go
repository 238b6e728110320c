package tft

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"

	"github.com/tftproject/tft/internal/core"
	"github.com/tftproject/tft/internal/metrics"
	"github.com/tftproject/tft/internal/population"
)

// renderDNS flattens everything a fixed seed promises to reproduce into one
// byte stream: the paper tables, the CLI headline, both dataset exports,
// and the crawl stats. Spans and metrics are deliberately excluded — span
// IDs come from a process-global counter, so they differ between runs by
// construction without making the measurements any less reproducible.
func renderDNS(t *testing.T, r *DNSRun) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tbl := range r.Tables() {
		buf.WriteString(tbl.String())
	}
	buf.WriteString(r.Headline())
	if err := r.WriteDataset(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteGeo(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "%+v\n", r.Stats())
	return buf.Bytes()
}

// TestDNSRunDeterministic runs the same fixed-seed crawl twice in-process
// and requires byte-identical reports. This is the regression gate behind
// the simclock/seededrand analyzers: any time.Now or global-RNG call that
// sneaks into the measurement path shows up here as a diff.
func TestDNSRunDeterministic(t *testing.T) {
	t.Parallel()
	opts := Options{Seed: 20160413, Scale: 0.02, Workers: 1}
	first, err := RunDNS(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunDNS(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderDNS(t, first), renderDNS(t, second)
	if !bytes.Equal(a, b) {
		t.Fatalf("fixed-seed runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("rendered report is empty; determinism check proved nothing")
	}
}

// TestDNSShardSinksMergeCanonically is the sharding half of the
// determinism gate. A multi-worker crawl's dataset is produced by merging
// per-shard sinks; this re-derives that merge from the Sink callback's
// per-shard streams and requires the result to equal the dataset the run
// returned — same observation set, same canonical ZID order, no worker
// allowed to drop, duplicate, or reorder a record. The crawl's stop point
// legitimately depends on worker interleaving (the novelty window is
// evaluated in completion order, as on a real crawl), so the invariant is
// merge fidelity for whatever set was measured, not cross-worker-count
// equality.
func TestDNSShardSinksMergeCanonically(t *testing.T) {
	const workers = 7
	w, err := population.BuildDNSWorld(20160413, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([][]*core.DNSObservation, workers)
	exp := &core.DNSExperiment{
		Client: w.Client, Auth: w.Auth, Web: w.Web, Geo: w.Geo,
		Zone: population.Zone, Weights: w.Pool.CountryCounts(),
		Seed: 20160413,
		Sink: func(shard int, o *core.DNSObservation) {
			shards[shard] = append(shards[shard], o)
		},
	}
	exp.Crawl.Workers = workers
	exp.Crawl.Metrics = metrics.NewRegistry()
	exp.InstallRules(population.WebIP)
	ds, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var merged []*core.DNSObservation
	for _, s := range shards {
		merged = append(merged, s...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].ZID < merged[j].ZID })
	if len(merged) == 0 {
		t.Fatal("sink saw no observations; merge check proved nothing")
	}
	if len(merged) != len(ds.Observations) {
		t.Fatalf("sink streams carry %d observations, dataset has %d", len(merged), len(ds.Observations))
	}
	for i := range merged {
		if merged[i] != ds.Observations[i] {
			t.Fatalf("observation %d: merged sink stream has %q, dataset has %q",
				i, merged[i].ZID, ds.Observations[i].ZID)
		}
		if i > 0 && merged[i-1].ZID >= merged[i].ZID {
			t.Fatalf("dataset order not strictly increasing at %d: %q >= %q",
				i, merged[i-1].ZID, merged[i].ZID)
		}
	}
}
