// Observe: watching a live ERASMUS fleet through the observability layer.
//
// A managed population — 32 self-measuring devices, an infection wave at
// one second, delta collection, durable verifier state — runs wall-paced
// while its metrics registry is served on an ephemeral HTTP port. The
// example plays the role of both operator and scraper: it pumps the
// engine in short steps and, between steps, scrapes its own /metrics
// endpoint and reads the manager's health snapshot exactly as a
// monitoring stack would. At the end it prints the key series it
// scraped, the final health, and a few collection spans from the tracer
// — the /tracez post-mortem feed.
//
// The instrumentation is a read-only tap: running the same scenario with
// Obs/Tracer/Events nil produces the identical alert stream (enforced by
// TestObservabilityEquivalence). erasmus-fleet -serve wraps this pattern in
// a daemon with /metrics, /healthz, /statusz, /tracez, /eventz and pprof.
//
// Run with:
//
//	go run ./examples/observe
package main

import (
	"bufio"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"

	"erasmus"
)

func main() {
	reg := erasmus.NewMetricsRegistry()
	tracer := erasmus.NewCollectionTracer(1024)
	events := erasmus.NewEventLog(256)

	run, err := erasmus.StartManagedPopulation(erasmus.ManagedPopulationConfig{
		Population:   32,
		Transport:    "sim",
		Seed:         3,
		QoA:          erasmus.QoA{TM: 100 * erasmus.Millisecond, TC: 400 * erasmus.Millisecond},
		Duration:     3 * erasmus.Second,
		Latency:      5 * erasmus.Millisecond,
		IMX6Fraction: 1, // µs-scale measurements keep the ms-scale TM feasible
		Wave: erasmus.WaveConfig{
			Coverage: 0.25,
			Start:    erasmus.Second,
			Spread:   500 * erasmus.Millisecond,
		},
		Delta:    true,
		StateDir: mustTempDir(),
		Obs:      reg,
		Tracer:   tracer,
		Events:   events,
	})
	if err != nil {
		log.Fatal(err)
	}

	addr, stop, err := erasmus.ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	fmt.Printf("serving /metrics on http://%s\n\n", addr)

	// Pump virtual time against the wall clock in 500 ms steps; after each
	// step, read the fleet like a monitoring stack: health from the
	// manager, series from our own scrape endpoint.
	for step := 1; step <= 6; step++ {
		run.Pump(erasmus.Ticks(step) * 500 * erasmus.Millisecond)
		h := run.Manager().Health()
		fmt.Printf("t=%-6v healthy %2d/%2d  queue %d  inflight %d  infected-series: %s\n",
			erasmus.Ticks(step)*500*erasmus.Millisecond, h.Healthy, h.Devices,
			h.QueueDepth, h.Inflight, scrape(addr, "erasmus_fleet_collections_total{outcome=\"infection\"}"))
	}

	res, err := run.Finish()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nkey series at the end of the run:")
	for _, series := range []string{
		"erasmus_fleet_collections_total",
		"erasmus_fleet_alerts_total",
		"erasmus_fleet_watermark_fallbacks_total",
		"erasmus_wal_appends_total",
		"erasmus_store_snapshots_total",
	} {
		for _, line := range scrapeAll(addr, series) {
			fmt.Println(" ", line)
		}
	}

	fmt.Printf("\nalerts: %d infection, %d tamper; delta rounds: %d; spans traced: %d; events: %d\n",
		res.AlertCounts[erasmus.AlertInfection], res.AlertCounts[erasmus.AlertTamper],
		res.DeltaRounds, tracer.Total(), events.Total())

	fmt.Println("\nlast three spans of the first alerted device:")
	if len(res.Alerts) > 0 {
		spans := tracer.SpansFor(res.Alerts[0].Device)
		if len(spans) > 3 {
			spans = spans[len(spans)-3:]
		}
		for _, sp := range spans {
			fmt.Printf("  %-10s launch=%-12v records=%d delta=%-5v outcome=%s\n",
				sp.Device, erasmus.Ticks(sp.LaunchTick), sp.Records, sp.Delta, sp.Outcome)
		}
	}
}

// scrape fetches /metrics and returns the value of the first series whose
// line starts with prefix ("?" when absent).
func scrape(addr, prefix string) string {
	lines := scrapeAll(addr, prefix)
	if len(lines) == 0 {
		return "?"
	}
	fields := strings.Fields(lines[0])
	return fields[len(fields)-1]
}

// scrapeAll fetches /metrics and returns every non-comment line starting
// with prefix.
func scrapeAll(addr, prefix string) []string {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, prefix) {
			out = append(out, line)
		}
	}
	return out
}

func mustTempDir() string {
	dir, err := os.MkdirTemp("", "erasmus-observe-*")
	if err != nil {
		log.Fatal(err)
	}
	return dir
}
