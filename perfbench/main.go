// Command perfbench is the repository benchmark. It drives the shipped
// tft.Run{DNS,HTTP,TLS} pipeline through fixed-work crawls and prints one
// JSON result line:
//
//	perfbench --workload dns-crawl --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced crawls. With
// --trace 1 it alternates untraced crawls with traced ones, whose layers are
// timed from outside the program through their exported seams, and replays
// inputs captured by the traced crawl through the wire codecs; it reports
// the per-layer metrics. METRICS.md describes every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line. Attempted counts the crawls
// run; Failed counts those that errored or failed an output check.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (dns-crawl, http-objects, tls-tunnel)")
	seed := flag.Uint64("seed", 1, "world and crawl seed")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from traced crawls")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool) error {
	wl, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seed == 0 {
		// tft treats seed 0 as "use the default seed".
		return errors.New("seed must be non-zero")
	}
	if seconds < 1 {
		return errors.New("seconds must be at least 1")
	}
	ctx := context.Background()
	budget := time.Duration(seconds) * time.Second
	var res *result
	var err error
	if traced {
		res, err = measureLayers(ctx, wl, seed, budget)
	} else {
		res, err = measureEndToEnd(ctx, wl, seed, budget)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
