// Command erasmus-fleet runs a population-scale ERASMUS scenario — a
// sharded fleet of 10⁵-class provers with churn, an infection wave, a
// lossy network and batched parallel verification — and prints a scaling
// and detection report.
//
// Example (the acceptance scenario: 100k mixed-architecture devices):
//
//	erasmus-fleet -population 100000 -shards 8 -imx6 0.25 \
//	    -tm 10m -tc 40m -duration 4h -loss 0.01 \
//	    -join 0.1 -retire 0.05 \
//	    -wave-coverage 0.3 -wave-start 1h -wave-spread 30m
//
// With -transport the same seeded scenario runs end-to-end through the
// fleet.Manager operations layer (staggered scheduling, asynchronous
// batch-verified pipeline, alert stream) over a pluggable transport:
//
//	erasmus-fleet -transport sim -population 1000          # simulated network
//	erasmus-fleet -transport udp -population 32            # real loopback UDP
//
// Managed transports default to incremental collection (-delta): the
// verifier keeps a per-device watermark and each round ships and verifies
// only the records measured since the previous one; -delta=false restores
// stateless full-history collection. -aggregate layers the O(1) tier on
// top: each round ships the prover's hash-chain head under a single MAC
// and the verifier walks the chain instead of recomputing per-record
// MACs, auditing record-by-record only on a mismatch.
// All modes produce identical alerts. On
// the virtual-time sim transport, delta automatically verifies inline
// (async verdicts would lag the instantly-advancing clock and every round
// would fall back to a full collection); the wall-paced udp transport
// keeps the async pipeline.
//
// With -state-dir the manager's verifier state — watermarks, per-device
// status, the alert stream — is journaled to a crash-consistent WAL +
// snapshot store in that directory and compacted when the run ends;
// -recover inspects such a directory and reports what a restarted
// verifier would resume with.
//
// With -serve addr a managed run becomes a live verifier: the engine is
// paced against the wall clock whatever the transport, and the full
// internal/serve HTTP surface (/metrics, /livez, /readyz, /healthz,
// /statusz, /schedz, /tracez, /eventz, the resumable /watch/alerts and
// /watch/events streams, pprof) is served while it runs. The process
// prints the run report at -duration or on SIGINT/SIGTERM; -duration 0
// serves until signalled.
//
//	erasmus-fleet -transport sim -serve 127.0.0.1:9464 -duration 0
//	erasmus-fleet -transport udp -serve 127.0.0.1:9464 -aggregate -adaptive -state-dir /tmp/erasmus-state
//
// A wall-paced run (the udp transport, or any transport with -serve)
// advances one virtual nanosecond per wall nanosecond, so it defaults to
// a milliseconds-scale QoA and a ~2 s horizon unless -tm/-tc/-duration
// are given explicitly.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/fleet"
	"erasmus/internal/obs"
	"erasmus/internal/popsim"
	"erasmus/internal/serve"
	"erasmus/internal/sim"
	"erasmus/internal/store"
)

// runSpec is one resolved invocation: the command line with every
// default applied. Exactly one of recoverDir, managed and sharded
// describes what to do.
type runSpec struct {
	// recoverDir (-recover) is a state directory to inspect.
	recoverDir string
	// managed (-transport) is the fleet-managed run; nil selects sharded.
	managed *popsim.ManagedConfig
	// serve (-serve) is the HTTP address a managed run is served on; the
	// run is then wall-paced and managed.Duration 0 means until signalled.
	serve   string
	sharded popsim.Config
}

// managedOnly names the flags the sharded runtime has no use for.
var managedOnly = map[string]bool{
	"adaptive": true, "aggregate": true, "delta": true, "latency": true,
	"pool": true, "serve": true, "state-dir": true, "sync-verify": true,
}

// parseArgs resolves the command line into a runSpec. Every error it
// returns is a usage error.
func parseArgs(args []string) (*runSpec, error) {
	fs := flag.NewFlagSet("erasmus-fleet", flag.ContinueOnError)
	var (
		population = fs.Int("population", 100_000, "number of prover devices")
		shards     = fs.Int("shards", 0, "engine shards (0 = GOMAXPROCS)")
		seed       = fs.Int64("seed", 1, "scenario seed")
		algName    = fs.String("alg", "blake2s", "MAC algorithm: sha1, sha256, blake2s")
		tm         = fs.Duration("tm", 10*time.Minute, "measurement period TM")
		tc         = fs.Duration("tc", 40*time.Minute, "collection period TC")
		duration   = fs.Duration("duration", 4*time.Hour, "simulated horizon (0 with -serve = until SIGINT/SIGTERM)")
		step       = fs.Duration("step", 0, "barrier epoch (0 = TC)")
		imx6Frac   = fs.Float64("imx6", 0.25, "fraction of i.MX6-class devices (rest MSP430)")
		loss       = fs.Float64("loss", 0.01, "collection loss probability")
		join       = fs.Float64("join", 0.10, "fraction of devices joining mid-run")
		retire     = fs.Float64("retire", 0.05, "fraction of devices retiring mid-run")
		waveCov    = fs.Float64("wave-coverage", 0.30, "fraction of devices hit by the infection wave (0 disables)")
		waveStart  = fs.Duration("wave-start", time.Hour, "when the wave begins")
		waveSpread = fs.Duration("wave-spread", 30*time.Minute, "window over which infections land")
		waveDwell  = fs.Duration("wave-dwell", 0, "malware dwell time (0 = persistent)")
		workers    = fs.Int("workers", 0, "batch-verification workers (0 = GOMAXPROCS)")
		transport  = fs.String("transport", "", "run the fleet-managed pipeline over this transport: udp|sim (empty = sharded popsim runtime)")
		latency    = fs.Duration("latency", 10*time.Millisecond, "one-way network latency (sim transport)")
		pool       = fs.Int("pool", 8, "UDP collector socket-pool size (udp transport)")
		syncVerify = fs.Bool("sync-verify", false, "verify inline instead of through the async pipeline (managed transports; forced on for -transport sim with -delta)")
		delta      = fs.Bool("delta", true, "incremental collection: per-device watermarks, \"since t_last\" requests, O(new)-record verification (managed transports)")
		aggregate  = fs.Bool("aggregate", false, "aggregate-anchor collection on top of -delta: one chain-head MAC per round instead of per-record MACs, per-record fallback on any mismatch (managed transports)")
		adaptive   = fs.Bool("adaptive", false, "adaptive per-device TC scheduling, clamped to [TC/2, 2·TC] (managed transports; see /schedz)")
		stateDir   = fs.String("state-dir", "", "journal verifier state (watermarks, device status, alerts) to a WAL+snapshot store in this directory (managed transports)")
		recover    = fs.Bool("recover", false, "inspect the -state-dir store: report what a restarted verifier would resume with, then exit")
		serveAddr  = fs.String("serve", "", "serve the verifier's HTTP surface (metrics, health, status, traces, watch streams, pprof) on this address and pace the run against the wall clock (managed transports; e.g. 127.0.0.1:9464)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	alg, err := mac.ParseAlgorithm(*algName)
	if err != nil {
		return nil, err
	}
	if *recover {
		if *stateDir == "" {
			return nil, errors.New("-recover requires -state-dir")
		}
		return &runSpec{recoverDir: *stateDir}, nil
	}

	set := map[string]bool{}
	stray := ""
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if stray == "" && managedOnly[f.Name] {
			stray = f.Name
		}
	})
	if *transport == "" && stray != "" {
		return nil, fmt.Errorf("-%s requires a managed transport (-transport sim|udp)", stray)
	}
	switch {
	case *duration < 0:
		return nil, fmt.Errorf("negative -duration %v", *duration)
	case *duration == 0 && *serveAddr == "":
		return nil, errors.New("-duration 0 (run until signalled) requires -serve")
	}

	switch {
	case *transport == "udp" || *serveAddr != "":
		// Wall-paced run: compress the default QoA to milliseconds so
		// the scenario completes in ~2 s unless overridden.
		if !set["tm"] {
			*tm = 100 * time.Millisecond
		}
		if !set["tc"] {
			*tc = 400 * time.Millisecond
		}
		if !set["duration"] {
			*duration = 2 * time.Second
		}
		if !set["wave-start"] {
			*waveStart = 500 * time.Millisecond
		}
		if !set["wave-spread"] {
			*waveSpread = 400 * time.Millisecond
		}
		if !set["loss"] {
			*loss = 0
		}
		if !set["population"] {
			*population = 32
		}
		if !set["imx6"] {
			*imx6Frac = 1 // µs-scale measurements keep ms-scale TM feasible
		}
	case *transport != "" && !set["population"]:
		*population = 1000
	}

	qoa := core.QoA{TM: sim.Ticks(*tm), TC: sim.Ticks(*tc)}
	wave := popsim.WaveConfig{
		Coverage: *waveCov,
		Start:    sim.Ticks(*waveStart),
		Spread:   sim.Ticks(*waveSpread),
		Dwell:    sim.Ticks(*waveDwell),
	}
	if *transport != "" {
		return &runSpec{serve: *serveAddr, managed: &popsim.ManagedConfig{
			Population:       *population,
			Transport:        *transport,
			Seed:             *seed,
			Alg:              alg,
			QoA:              qoa,
			Duration:         sim.Ticks(*duration),
			IMX6Fraction:     *imx6Frac,
			Loss:             *loss,
			Latency:          sim.Ticks(*latency),
			LateJoinFraction: *join,
			Wave:             wave,
			VerifyWorkers:    *workers,
			Synchronous:      *syncVerify,
			AdaptiveSchedule: *adaptive,
			Delta:            *delta,
			Aggregate:        *aggregate,
			UDPPool:          *pool,
			StateDir:         *stateDir,
		}}, nil
	}
	return &runSpec{sharded: popsim.Config{
		Population:   *population,
		Shards:       *shards,
		Seed:         *seed,
		Alg:          alg,
		QoA:          qoa,
		Duration:     sim.Ticks(*duration),
		Step:         sim.Ticks(*step),
		IMX6Fraction: *imx6Frac,
		Loss:         *loss,
		Churn: popsim.ChurnConfig{
			LateJoinFraction: *join,
			RetireFraction:   *retire,
		},
		Wave:          wave,
		VerifyWorkers: *workers,
	}}, nil
}

func main() {
	spec, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "erasmus-fleet:", err)
		os.Exit(2)
	}
	switch {
	case spec.recoverDir != "":
		err = reportRecovery(spec.recoverDir)
	case spec.serve != "":
		err = serveManaged(*spec.managed, spec.serve)
	case spec.managed != nil:
		var res *popsim.ManagedResult
		if res, err = popsim.RunManaged(*spec.managed); err == nil {
			reportManaged(res, res.Config.Duration)
		}
	default:
		var res *popsim.Result
		if res, err = popsim.Run(spec.sharded); err == nil {
			report(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "erasmus-fleet:", err)
		os.Exit(1)
	}
}

// Ring sizes of the served /tracez and /eventz feeds.
const (
	traceSpans = 4096
	eventCap   = 1024
)

// serveManaged runs cfg as a live verifier: the internal/serve mux on
// addr, the engine paced against the wall clock until cfg.Duration (0 =
// until SIGINT/SIGTERM), then the same report a batch run prints.
func serveManaged(cfg popsim.ManagedConfig, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}

	// The horizon is a pump target, not a scenario parameter: with
	// -duration 0 the scenario keeps popsim's 6×TC default shape but the
	// fleet is pumped until a signal arrives.
	horizon := cfg.Duration
	cfg.Obs = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(traceSpans)
	cfg.Events = obs.NewEventLog(eventCap)
	run, err := popsim.StartManaged(cfg)
	if err != nil {
		ln.Close()
		return err
	}
	srv := &http.Server{Handler: serve.NewMux(serve.Config{
		Manager:  run.Manager(),
		Registry: cfg.Obs,
		Tracer:   cfg.Tracer,
		Events:   cfg.Events,
		Status:   func() any { return &cfg },
	})}
	go srv.Serve(ln)
	defer srv.Close()

	until := "until SIGINT/SIGTERM"
	if horizon > 0 {
		until = fmt.Sprintf("for %v", horizon)
	}
	fmt.Printf("erasmus-fleet: serving http://%s (metrics, livez, readyz, healthz, statusz, schedz, tracez, eventz, watch/alerts, watch/events, pprof) %s\n",
		ln.Addr(), until)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	// Pump the engine in short wall chunks from this goroutine (engines are
	// single-threaded); between chunks, check for a shutdown signal. HTTP
	// handlers never touch the engine — they read the manager, registry and
	// rings, all safe concurrently.
	const chunk = sim.Ticks(250 * time.Millisecond)
	now := run.Engine().Now()
pump:
	for horizon == 0 || now < horizon {
		select {
		case s := <-sig:
			fmt.Printf("\nerasmus-fleet: %v — finishing run\n", s)
			break pump
		default:
		}
		next := now + chunk
		if horizon > 0 && next > horizon {
			next = horizon
		}
		run.Pump(next)
		now = run.Engine().Now()
	}

	res, err := run.Finish()
	if err != nil {
		return err
	}
	reportManaged(res, now)
	return nil
}

func report(res *popsim.Result) {
	cfg, st := res.Config, res.Stats
	k := cfg.QoA.RecordsPerCollection()
	fmt.Println("erasmus-fleet: population-scale attestation simulation")
	fmt.Printf("  population %d (%d MSP430 / %d i.MX6), %d shards, seed %d, %s\n",
		st.Devices, st.MSP430Devices, st.IMX6Devices, len(res.Shards), cfg.Seed, cfg.Alg)
	fmt.Printf("  QoA TM=%v TC=%v (k=%d), horizon %v, barrier step %v\n",
		cfg.QoA.TM, cfg.QoA.TC, k, cfg.Duration, cfg.Step)
	fmt.Printf("  churn: %d late joiners, %d retirements; network loss %.1f%%\n",
		st.LateJoiners, st.Retirements, 100*cfg.Loss)
	if cfg.Wave.Coverage > 0 {
		dwell := "persistent"
		if cfg.Wave.Dwell > 0 {
			dwell = fmt.Sprintf("dwell %v", cfg.Wave.Dwell)
		}
		fmt.Printf("  wave: %.0f%% coverage starting %v over %v (%s)\n",
			100*cfg.Wave.Coverage, cfg.Wave.Start, cfg.Wave.Spread, dwell)
	}

	fmt.Println("\nper-shard throughput:")
	fmt.Println("  shard   devices      events        wall    events/s")
	for _, sr := range res.Shards {
		evps := 0.0
		if sr.Wall > 0 {
			evps = float64(sr.EventsFired) / sr.Wall.Seconds()
		}
		fmt.Printf("  %5d  %8d  %10d  %10v  %10.0f\n",
			sr.Shard, sr.Devices, sr.EventsFired, sr.Wall.Round(time.Millisecond), evps)
	}

	fmt.Println("\naggregate:")
	fmt.Printf("  measurements %d (aborted %d, missed %d)\n", st.Measurements, st.Aborted, st.Missed)
	fmt.Printf("  collections %d: %d verified, %d lost (%.2f%%), %d empty\n",
		st.Collections, st.HistoriesVerified, st.LostCollections, 100*st.LossRate(), st.EmptyCollections)
	fmt.Printf("  records verified %d in %d batches via %d workers (%v)\n",
		st.RecordsVerified, res.Batches, cfg.VerifyWorkers, res.VerifyWall.Round(time.Millisecond))
	fmt.Printf("  freshness mean %v (§3.1 predicts TM/2 = %v)\n",
		st.MeanFreshness(), cfg.QoA.TM/2)
	fmt.Printf("  tamper reports %d, schedule-gap findings %d\n", st.TamperReports, st.GapReports)
	if st.InfectionsSeeded > 0 {
		fmt.Printf("  infections: %d seeded, %d detected (%.1f%%), %d infected reports\n",
			st.InfectionsSeeded, st.InfectionsDetected, 100*st.DetectionRate(), st.InfectedReports)
		fmt.Printf("  detection latency mean %v, max %v (bound TM+TC = %v); first at %v\n",
			st.MeanDetectionLatency(), st.DetectionLatencyMax,
			cfg.QoA.MaxDetectionDelay(), st.FirstDetectionAt)
	}
	fmt.Printf("\nwall: build %v, run %v (verify %v) — %.0f simulated device-seconds/s\n",
		res.BuildWall.Round(time.Millisecond), res.RunWall.Round(time.Millisecond),
		res.VerifyWall.Round(time.Millisecond), res.DeviceSecondsPerSecond())
}

// reportManaged prints a managed run's report; horizon is the virtual
// time the engine was driven to.
func reportManaged(res *popsim.ManagedResult, horizon sim.Ticks) {
	cfg := res.Config
	fmt.Printf("erasmus-fleet: fleet-managed attestation over the %s transport\n", cfg.Transport)
	fmt.Printf("  population %d (%d late joiners), seed %d, %s\n",
		res.Devices, res.LateJoiners, cfg.Seed, cfg.Alg)
	fmt.Printf("  QoA TM=%v TC=%v (k=%d), horizon %v\n",
		cfg.QoA.TM, cfg.QoA.TC, cfg.QoA.RecordsPerCollection(), horizon)
	if cfg.Transport == "sim" {
		fmt.Printf("  network: latency %v, loss %.1f%%\n", cfg.Latency, 100*cfg.Loss)
	} else {
		fmt.Printf("  network: loopback UDP, %d pooled sockets\n", cfg.UDPPool)
	}
	mode := "async batch-verified pipeline"
	if cfg.Synchronous {
		mode = "inline verification"
		if cfg.Transport == "sim" && cfg.Delta {
			mode += " (auto: virtual-time delta)"
		}
	}
	collection := "full k-record histories"
	switch {
	case cfg.Aggregate:
		collection = fmt.Sprintf("aggregate (chain-anchor; %d rounds O(1)-accepted, %d audited record-by-record, %d delta-verified)",
			res.AggregateRounds, res.AggregateFallbacks, res.DeltaRounds)
	case cfg.Delta:
		collection = fmt.Sprintf("delta (since-watermark; %d rounds verified incrementally)", res.DeltaRounds)
	}
	fmt.Printf("  verification: %s\n", mode)
	fmt.Printf("  collection: %s\n", collection)
	if cfg.StateDir != "" && res.StoreStats != nil {
		st := res.StoreStats
		fmt.Printf("  state store: %s — %d devices (%d watermarked), %d alerts, snapshot %s, WAL %s\n",
			cfg.StateDir, st.Devices, st.Watermarked, st.Alerts,
			sizeOf(st.SnapshotBytes), sizeOf(st.WALBytes))
		if r := res.Recovery; r != nil && (r.SnapshotSeq > 0 || r.RecordsReplayed > 0) {
			fmt.Printf("  recovered at open: snapshot #%d (%d devices) + %d WAL records in %d segments\n",
				r.SnapshotSeq, r.SnapshotDevices, r.RecordsReplayed, r.SegmentsReplayed)
		}
	}

	fmt.Println("\nalert stream:")
	for _, kind := range []fleet.AlertKind{
		fleet.AlertInfection, fleet.AlertTamper, fleet.AlertUnreachable, fleet.AlertRecovered,
	} {
		fmt.Printf("  %-12s %d\n", kind, res.AlertCounts[kind])
	}
	if res.InfectionsSeeded > 0 {
		fmt.Printf("\ninfections: %d seeded, %d detected (%.1f%%), %d false positives\n",
			res.InfectionsSeeded, res.InfectionsDetected,
			100*float64(res.InfectionsDetected)/float64(res.InfectionsSeeded), res.FalseInfections)
	}
	fmt.Printf("healthy: %d/%d devices\n", res.HealthyCount, res.Devices)
	fmt.Printf("wall: build %v, run %v\n",
		res.BuildWall.Round(time.Millisecond), res.RunWall.Round(time.Millisecond))
}

// reportRecovery opens a state-store directory read-mostly and prints what
// a restarted verifier would resume with.
func reportRecovery(dir string) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "erasmus-fleet: close state store: %v\n", cerr)
		}
	}()
	ri := st.Recovery()
	stats := st.Stats()

	fmt.Printf("erasmus-fleet: durable verifier state in %s\n", dir)
	fmt.Printf("  snapshot: #%d (%d devices)\n", ri.SnapshotSeq, ri.SnapshotDevices)
	fmt.Printf("  WAL replay: %d records in %d segments", ri.RecordsReplayed, ri.SegmentsReplayed)
	if ri.TornTail {
		fmt.Printf(" (torn tail dropped — crash residue)")
	}
	fmt.Println()
	for _, q := range ri.Quarantined {
		fmt.Printf("  quarantined: %s\n", q)
	}
	for _, n := range ri.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Printf("  resumable state: %d devices (%d with watermarks — these resume delta collection), %d alerts\n",
		stats.Devices, stats.Watermarked, stats.Alerts)
	fmt.Printf("  footprint: snapshot %s, WAL %s in %d segments\n",
		sizeOf(stats.SnapshotBytes), sizeOf(stats.WALBytes), stats.Segments)

	unhealthy, unreachable := 0, 0
	for _, d := range st.Devices() {
		if d.HasStatus && !d.Healthy {
			unhealthy++
		}
		if d.HasStatus && d.Unreachable {
			unreachable++
		}
	}
	fmt.Printf("  device health at crash: %d unhealthy, %d unreachable\n", unhealthy, unreachable)
	if alerts := st.Alerts(); len(alerts) > 0 {
		last := alerts[len(alerts)-1]
		fmt.Printf("  last alert: t=%v %s %s: %s\n", sim.Ticks(last.Time), last.Device, last.Kind, last.Detail)
	}
	return nil
}

// sizeOf renders a byte count with an adaptive unit.
func sizeOf(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
