package tft

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// goldenCounters are the outcome and violation counters a refactor of the
// crawl pipeline must leave untouched. An absent counter reads as zero.
var goldenCounters = []string{
	"crawl_failures_total", "crawl_discarded_total", "http_quota_skipped_total",
	"fault_probes_total",
	"dns_hijacked_total", "dns_shared_anycast_total",
	"http_modified_total",
	"tls_replaced_total", "tls_phase2_total", "tls_probes_total",
	"monitor_monitored_total", "monitor_unexpected_requests_total",
	"smtp_stripped_total", "smtp_blocked_total",
}

// goldenDigest flattens one fixed-seed run into a short text: the SHA-256
// (first 16 hex digits) of each rendered artifact, the Table-2 overview
// row, the manifest's final counts, and the outcome and violation counters.
func goldenDigest(t *testing.T, r Run) string {
	t.Helper()
	sum := func(fn func(*bytes.Buffer) error) string {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(h[:8])
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tables=%s headline=%s dataset=%s geo=%s stats=%s\n",
		sum(func(buf *bytes.Buffer) error {
			for _, tbl := range r.Tables() {
				buf.WriteString(tbl.String())
			}
			return nil
		}),
		sum(func(buf *bytes.Buffer) error { buf.WriteString(r.Headline()); return nil }),
		sum(func(buf *bytes.Buffer) error { return r.WriteDataset(buf) }),
		sum(func(buf *bytes.Buffer) error { return r.WriteGeo(buf) }),
		sum(func(buf *bytes.Buffer) error { _, err := fmt.Fprintf(buf, "%+v", r.Stats()); return err }))
	ov := r.Overview()
	fmt.Fprintf(&b, "overview nodes=%d ases=%d countries=%d\n", ov.Nodes, ov.ASes, ov.Countries)
	m := r.Manifest()
	fmt.Fprintf(&b, "sessions=%d unique=%d done=%d probes=%d violations=%d failures=%d discarded=%d duplicates=%d faults=%d\n",
		m.Sessions, m.UniqueNodes, m.NodesDone, m.Probes, m.Violations,
		m.Failures, m.Discarded, m.Duplicates, m.Faults)
	snap := r.Metrics()
	for _, name := range goldenCounters {
		if v := snap.Counters[name]; v != 0 {
			fmt.Fprintf(&b, "%s=%d ", name, v)
		}
	}
	outcomes := snap.Labeled["http_object_outcomes"]
	labels := make([]string, 0, len(outcomes))
	for l := range outcomes {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(&b, "http_object_outcomes{%s}=%d ", l, outcomes[l])
	}
	return strings.TrimSpace(b.String())
}

// goldenDigests pins every registered experiment, fault-free and under
// lossy-links, at Seed 20160413, Scale 0.02, one worker and a 2000-session
// cap. A change to these values is a change to measured output: it needs a
// reason of its own, never a refactor.
var goldenDigests = map[string]string{
	"dns": "tables=166f57f4c0b983f8 headline=32497f55d0452fa3 dataset=9c00d3ba17c6c4d8 geo=61aaaa53e4ad3479 stats=4b3c5f94e4814b55\n" +
		"overview nodes=1869 ases=184 countries=162\n" +
		"sessions=2000 unique=1869 done=1869 probes=2000 violations=88 failures=0 discarded=0 duplicates=131 faults=0\n" +
		"dns_hijacked_total=88 dns_shared_anycast_total=3",
	"dns/lossy-links": "tables=34790fc46bc6a0f1 headline=44b36e6673f6dd51 dataset=5411309de7bbe2f2 geo=61aaaa53e4ad3479 stats=1b3a335de75583de\n" +
		"overview nodes=1820 ases=183 countries=162\n" +
		"sessions=2000 unique=1832 done=1820 probes=2000 violations=88 failures=3 discarded=0 duplicates=122 faults=55\n" +
		"crawl_failures_total=3 fault_probes_total=55 dns_hijacked_total=88 dns_shared_anycast_total=2",
	"http": "tables=80bd4ee24cf419e4 headline=f399e13d8aa28530 dataset=bba8567e605c1d54 geo=e0c708f5b4664311 stats=e998eb9a32282d97\n" +
		"overview nodes=712 ases=307 countries=167\n" +
		"sessions=2000 unique=810 done=712 probes=2000 violations=48 failures=1 discarded=98 duplicates=1189 faults=0\n" +
		"crawl_failures_total=1 http_quota_skipped_total=98 http_modified_total=48 http_object_outcomes{blocked}=1 http_object_outcomes{modified}=47 http_object_outcomes{unmodified}=2800",
	"http/lossy-links": "tables=c26ed53a6af9fe2b headline=3ecb5ea6dc4c84db dataset=a08d7d109016f84c geo=e0c708f5b4664311 stats=96d1681669c04c67\n" +
		"overview nodes=657 ases=290 countries=154\n" +
		"sessions=2000 unique=796 done=657 probes=2000 violations=177 failures=3 discarded=46 duplicates=1104 faults=190\n" +
		"crawl_failures_total=3 http_quota_skipped_total=46 fault_probes_total=190 http_modified_total=177 http_object_outcomes{blocked}=1 http_object_outcomes{empty}=1 http_object_outcomes{error}=1 http_object_outcomes{modified}=196 http_object_outcomes{unmodified}=2429",
	"tls": "tables=c50d653d3ddf5031 headline=73ca05382ccae3d3 dataset=c6fae8f48487af3b geo=6e2ec317d4d004c7 stats=c2ba49153fc66461\n" +
		"overview nodes=1886 ases=244 countries=114\n" +
		"sessions=2000 unique=1886 done=1886 probes=2000 violations=13 failures=0 discarded=0 duplicates=114 faults=0\n" +
		"tls_replaced_total=13 tls_phase2_total=13 tls_probes_total=6162",
	"tls/lossy-links": "tables=e12a6c40a290a309 headline=4c24716efa13328f dataset=133a8471eeeba551 geo=6e2ec317d4d004c7 stats=c64d9ab3d9012110\n" +
		"overview nodes=1786 ases=245 countries=114\n" +
		"sessions=2000 unique=1786 done=1786 probes=2000 violations=305 failures=30 discarded=0 duplicates=106 faults=78\n" +
		"crawl_failures_total=30 fault_probes_total=78 tls_replaced_total=305 tls_phase2_total=305 tls_probes_total=14722",
	"monitor": "tables=90cf32f005909e56 headline=42edbacec41b655d dataset=3f4bfaf2557e403c geo=dc4df09bd7d4b186 stats=fb9bc63529bbc0d6\n" +
		"overview nodes=1876 ases=286 countries=164\n" +
		"sessions=2000 unique=1876 done=1876 probes=2000 violations=29 failures=0 discarded=0 duplicates=124 faults=0\n" +
		"monitor_monitored_total=29 monitor_unexpected_requests_total=55",
	"monitor/lossy-links": "tables=96e520e5fe3fb9a6 headline=3b089094b1ad909b dataset=1c33b07f1926bd2c geo=dc4df09bd7d4b186 stats=5dbd33b89fad3882\n" +
		"overview nodes=1837 ases=285 countries=165\n" +
		"sessions=2000 unique=1837 done=1837 probes=2000 violations=19 failures=0 discarded=0 duplicates=125 faults=38\n" +
		"fault_probes_total=38 monitor_monitored_total=19 monitor_unexpected_requests_total=35",
	"smtp": "tables=27998eefa1f5b8af headline=ae77e887ac9b4e61 dataset=86c18f727f9b58af geo=73e93c144a908ee6 stats=bea9235dc7d4ad9b\n" +
		"overview nodes=1255 ases=134 countries=120\n" +
		"sessions=2000 unique=1255 done=1255 probes=2000 violations=16 failures=0 discarded=0 duplicates=745 faults=0\n" +
		"smtp_stripped_total=16 smtp_blocked_total=156",
	"smtp/lossy-links": "tables=682819e995a9b554 headline=05e315fd7a307b2f dataset=429f09375f1d741b geo=73e93c144a908ee6 stats=cbd2261e3d0aaea0\n" +
		"overview nodes=1244 ases=132 countries=120\n" +
		"sessions=2000 unique=1244 done=1244 probes=2000 violations=14 failures=0 discarded=0 duplicates=734 faults=22\n" +
		"fault_probes_total=22 smtp_stripped_total=14 smtp_blocked_total=168",
}

// TestExperimentGoldenDigests is the byte-identity proof for refactors of
// the crawl pipeline and the run type: each experiment's tables, headline,
// dataset, geo snapshot, stats, manifest counts and outcome counters must
// match the values pinned above. Unlike the same-binary re-run checks, it
// catches a change that alters output the same way on every run.
func TestExperimentGoldenDigests(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("ten full crawls")
	}
	for _, name := range Experiments() {
		for _, chaos := range []string{"", "lossy-links"} {
			key := name
			if chaos != "" {
				key += "/" + chaos
			}
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				opts := Options{Seed: 20160413, Scale: 0.02, Workers: 1, Chaos: chaos}
				opts.Crawl.MaxSessions = 2000
				r, err := RunExperiment(context.Background(), name, opts)
				if err != nil {
					t.Fatal(err)
				}
				got := goldenDigest(t, r)
				if want := goldenDigests[key]; got != want {
					t.Errorf("digest changed\n got: %q\nwant: %q", got, want)
				}
			})
		}
	}
}
