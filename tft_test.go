package tft

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tftproject/tft/internal/analysis"
	"github.com/tftproject/tft/internal/dataset"
)

// Integration tests run the whole pipeline at a small scale; the benches in
// bench_test.go exercise the default scale.
const itScale = 0.02

func TestRunAllAndReport(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	res, err := RunAll(context.Background(), Options{Seed: 3, Scale: itScale})
	if err != nil {
		t.Fatal(err)
	}
	comps := res.Compare()
	if len(comps) < 12 {
		t.Fatalf("only %d comparison rows", len(comps))
	}
	failed := 0
	for _, c := range comps {
		if !c.Holds {
			failed++
			t.Errorf("shape does not hold: %s %s — paper %s, measured %s", c.Ref, c.Metric, c.Paper, c.Measured)
		}
	}
	report := res.Report().String()
	if !strings.Contains(report, "Paper vs. measured") {
		t.Fatal("report render broken")
	}
	overview := res.Overview().String()
	if !strings.Contains(overview, "Exit Nodes") {
		t.Fatalf("overview broken:\n%s", overview)
	}
}

func TestRunDNSTables(t *testing.T) {
	run, err := RunDNS(context.Background(), Options{Seed: 5, Scale: itScale})
	if err != nil {
		t.Fatal(err)
	}
	tables := run.Tables()
	if len(tables) != 3 {
		t.Fatalf("tables = %d", len(tables))
	}
	t3 := tables[0].String()
	if !strings.Contains(t3, "Malaysia") {
		t.Errorf("Table 3 missing Malaysia:\n%s", t3)
	}
	t4 := tables[1].String()
	for _, isp := range []string{"TMnet", "Verizon", "Talk Talk"} {
		if !strings.Contains(t4, isp) {
			t.Errorf("Table 4 missing %s:\n%s", isp, t4)
		}
	}
	t5 := tables[2].String()
	if !strings.Contains(t5, "navigationshilfe.t-online.de") {
		t.Errorf("Table 5 missing t-online row:\n%s", t5)
	}
	if !strings.Contains(t5, "nortonsafe.search.ask.com") {
		t.Errorf("Table 5 missing norton row:\n%s", t5)
	}
}

func TestDefaultOptions(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 0.05 || o.Seed == 0 {
		t.Fatalf("defaults = %+v", o)
	}
	if _, err := RunDNS(context.Background(), Options{Scale: -1}); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestDumpAndReanalyze(t *testing.T) {
	// The release round trip: run a small campaign, dump it, reload the
	// datasets with the geo snapshots, and confirm the regenerated analysis
	// matches the live one.
	res, err := RunAll(context.Background(), Options{Seed: 11, Scale: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.Dump(dir); err != nil {
		t.Fatal(err)
	}

	gf, err := os.Open(filepath.Join(dir, "geo.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	gh, reg, err := dataset.ReadGeo(gf)
	gf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if gh.Scale != 0.005 || reg.NumASes() == 0 {
		t.Fatalf("geo header %+v, ases %d", gh, reg.NumASes())
	}

	df, err := os.Open(filepath.Join(dir, "dns.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	_, ds, err := dataset.ReadDNS(df)
	df.Close()
	if err != nil {
		t.Fatal(err)
	}
	reloaded := analysis.AnalyzeDNS(analysis.Config{Scale: gh.Scale}, reg, ds)
	live := res.DNS.Analysis.Summary()
	got := reloaded.Summary()
	if got.MeasuredNodes != live.MeasuredNodes || got.Hijacked != live.Hijacked {
		t.Fatalf("reloaded summary %+v != live %+v", got, live)
	}
	if got.Attribution[analysis.SourceISPResolver] != live.Attribution[analysis.SourceISPResolver] {
		t.Fatalf("attribution diverged: %v vs %v", got.Attribution, live.Attribution)
	}
	// Table 4 regenerates identically.
	_, liveTable4 := res.DNS.Analysis.Table4()
	_, reTable4 := reloaded.Table4()
	liveT4 := liveTable4.String()
	reT4 := reTable4.String()
	if liveT4 != reT4 {
		t.Fatalf("Table 4 diverged:\n%s\nvs\n%s", liveT4, reT4)
	}

	// Monitoring delays survive the round trip.
	mf, err := os.Open(filepath.Join(dir, "monitor.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	_, mds, err := dataset.ReadMonitor(mf)
	mf.Close()
	if err != nil {
		t.Fatal(err)
	}
	mgf, _ := os.Open(filepath.Join(dir, "geo-monitor.jsonl"))
	_, mreg, err := dataset.ReadGeo(mgf)
	mgf.Close()
	if err != nil {
		t.Fatal(err)
	}
	liveMon := res.Monitor.Analysis.Summary()
	reMon := analysis.AnalyzeMonitor(analysis.Config{Scale: gh.Scale}, mreg, mds).Summary()
	if reMon.Monitored != liveMon.Monitored || reMon.UniqueIPs != liveMon.UniqueIPs {
		t.Fatalf("monitor summary diverged: %+v vs %+v", reMon, liveMon)
	}
}

func TestRunSMTPFacade(t *testing.T) {
	run, err := RunSMTP(context.Background(), Options{Seed: 2, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	s := run.Analysis.Summary()
	if s.MeasuredNodes == 0 || s.Blocked == 0 || s.Stripped == 0 {
		t.Fatalf("summary = %+v", s)
	}
	tables := run.Tables()
	if len(tables) != 1 || !strings.Contains(tables[0].String(), "port-25 blocked") {
		t.Fatalf("tables = %v", tables)
	}
}

func TestRunLongitudinalFacade(t *testing.T) {
	run, err := RunLongitudinal(context.Background(), Options{Seed: 2, Scale: 0.005}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Waves) != 2 {
		t.Fatalf("waves = %d", len(run.Waves))
	}
	tbl := run.Table().String()
	if !strings.Contains(tbl, "Wave") || !strings.Contains(tbl, "0") {
		t.Fatalf("table:\n%s", tbl)
	}
	// Wave 1 applied StandardEvolution (TMnet retired): rate must not rise.
	if run.Waves[1].HijackRate() > run.Waves[0].HijackRate()*1.05 {
		t.Fatalf("rate rose: %.3f -> %.3f", run.Waves[0].HijackRate(), run.Waves[1].HijackRate())
	}
}
