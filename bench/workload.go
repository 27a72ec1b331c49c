package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"erasmus/internal/fleet"
	"erasmus/internal/sim"
	"erasmus/internal/store"
)

// workload is one set of inputs the benchmark runs. Names are fixed:
// later issues cite them.
type workload struct {
	name string
	why  string

	// Replay workloads: fleet shape, verification tier, durability.
	spec      fleetSpec
	aggregate bool
	durable   bool // store, alert subscriber, dashboard polls, adversary plan

	// udp-loopback: hosted provers behind real sockets, wall-paced.
	udp *udpSpec
}

var workloads = []workload{
	{
		name: "steady-agg",
		why:  "healthy fleet on the aggregate tier: one MAC per collection, so time goes to per-collection overhead in fleet, sim and core decode; MAC-speed work must not move it",
		spec: fleetSpec{Devices: 2000, TM: sim.Minute, K: 8, Rounds: 40, MemBytes: 256},

		aggregate: true,
	},
	{
		name: "audit-full",
		why:  "stateless full collection, every record's MAC recomputed: core verify and crypto/mac dominate and the batch worker pool matters; fleet is a small share",
		spec: fleetSpec{Devices: 1000, TM: sim.Minute, K: 32, Rounds: 24, MemBytes: 256},
	},
	{
		name: "durable-mixed",
		why:  "aggregate tier plus WAL, fsync, snapshot, alert subscriber, dashboard reads and recovery, under seeded infections, tampering and silent devices: the write, alert and read paths the others never touch",
		spec: fleetSpec{
			Devices: 2000, TM: sim.Minute, K: 8, Rounds: 40, MemBytes: 256,
			Infected: 0.10, Tampered: 0.02, Silent: 0.03,
		},
		aggregate: true,
		durable:   true,
	},
	{
		name: "udp-loopback",
		why:  "open-loop collection over real 127.0.0.1 sockets at the smallest datagram size, where per-packet cost dominates; the replay workloads bypass udptransport, so a transport change moves only this one",
		udp:  &udpSpec{Devices: 2000, TM: 250 * sim.Millisecond, Slots: 16, MemBytes: 1024, Pool: 2},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// result is what one run of one workload reports.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// AlertDigest condenses the workload's alert stream; with the exact
	// count metrics it is what must repeat for a repeated seed.
	AlertDigest string `json:"alert_digest,omitempty"`
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

// runOptions are the knobs of one run.
type runOptions struct {
	seed    int64
	seconds float64
	traced  bool
	scratch string // directory for store files and traces
}

// run measures one workload once.
func run(w workload, o runOptions) (*result, error) {
	res := &result{Workload: w.name, Seed: o.seed, Traced: o.traced, Metrics: metricSet{}}
	var err error
	switch {
	case w.udp != nil && o.traced:
		err = traceUDP(w, o, res)
	case w.udp != nil:
		err = runUDP(w, o, res)
	case o.traced:
		err = traceReplay(w, o, res)
	default:
		err = runReplay(w, o, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	decls := endToEnd
	if o.traced {
		decls = perLayer
	}
	if err := res.Metrics.conform(decls); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return res, nil
}

// setUpRepeated sets the workload up setupRepeats times, keeps the last and
// reports each set-up's duration.
func setUpRepeated(w workload, o runOptions) (*replayWorkload, []float64, error) {
	var rw *replayWorkload
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		rw = nil // let the previous evidence go before building the next
		start := time.Now()
		var err error
		if rw, err = setUpReplay(w, o.seed, o.scratch+"/store-"+w.name); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return rw, secs, nil
}

// samples accumulates the end-to-end metrics that are taken once per
// timed region: a pass of a replay workload, a window of udp-loopback.
type samples struct {
	perS, cpuUs, allocs, bytes, latency []float64
}

// add takes one timed region in which applied collections got their
// verdicts, with the launch-to-verdict latencies seen in it.
func (s *samples) add(r reading, applied int, latencyUs []float64) {
	n := float64(applied)
	s.perS = append(s.perS, n/r.wall.Seconds())
	s.cpuUs = append(s.cpuUs, float64(r.cpu)/1e3/n)
	s.allocs = append(s.allocs, float64(r.mallocs)/n)
	s.bytes = append(s.bytes, float64(r.bytes)/n)
	s.latency = append(s.latency, percentile(latencyUs, 0.50))
}

// report files the samples under the end-to-end metric names.
func (s *samples) report(m metricSet) {
	m.setFrom("collections_per_s", s.perS)
	m.setFrom("cpu_us_per_collection", s.cpuUs)
	m.setFrom("allocs_per_collection", s.allocs)
	m.setFrom("alloc_bytes_per_collection", s.bytes)
	m.setFrom("verdict_latency_p50_us", s.latency)
}

// failedOf counts a tally's failed operations: outcomes that differ from
// the expected ones, and collections launched but never applied.
func failedOf(t *tally) int { return t.mismatched + t.launched - t.applied() }

// runReplay is the untraced run of a replay workload: set up, discard a
// warm-up pass, then repeat passes for the run's duration and report the
// median of each metric over the passes.
func runReplay(w workload, o runOptions, out *result) error {
	rw, setupSecs, err := setUpRepeated(w, o)
	if err != nil {
		return err
	}
	err = rw.measure(o, setupSecs, out)
	if rmErr := rw.removeStores(); err == nil {
		err = rmErr
	}
	return err
}

func (rw *replayWorkload) measure(o runOptions, setupSecs []float64, out *result) error {
	if _, err := rw.runPass(passOpts{}); err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	heapBase := liveHeap()

	var s samples
	var heap []float64
	var last passResult
	for start := time.Now(); len(s.perS) == 0 || time.Since(start).Seconds() < o.seconds; {
		prevDir := last.storeDir
		var err error
		if last, err = rw.runPass(passOpts{pass: len(s.perS) + 1}); err != nil {
			return fmt.Errorf("pass %d: %w", len(s.perS)+1, err)
		}
		if prevDir != "" {
			if err := os.RemoveAll(prevDir); err != nil {
				return err
			}
		}
		s.add(last.reading, last.tally.applied(), last.rec.latencyUs)
		heap = append(heap, (float64(last.heap)-float64(heapBase))/float64(rw.spec.Devices))
		out.Attempted += last.tally.launched
		out.Failed += failedOf(last.tally)
	}
	recovery, _, err := rw.restart(last.storeDir, last.alerts, o.restartBudget())
	if err != nil {
		return err
	}

	s.report(out.Metrics)
	out.Metrics.setFrom("heap_bytes_per_device", heap)
	out.Metrics.setFrom("recovery_ms", recovery)
	out.Metrics.setFrom("setup_s", setupSecs)
	out.Correct = out.Failed == 0
	out.AlertDigest = alertDigest(last.alerts)
	return nil
}

// restartRepeats is the least number of times recovery is timed. A restart
// without a store takes a millisecond or two, too short for a median of
// five to hold still, so the untraced run keeps restarting for
// restartBudget.
const restartRepeats = 5

// restartBudget is the time an untraced run spends timing restarts: a
// fifteenth of its measuring time.
func (o runOptions) restartBudget() time.Duration {
	return time.Duration(o.seconds / 15 * float64(time.Second))
}

// restart times bringing a verifier back into service: re-open the
// store the last pass wrote (durable workloads), build a manager over it,
// register the fleet and start scheduling. It also checks that the
// recovered store holds the alert stream the manager ended with, and
// returns the recovery report of the first re-open.
func (w *replayWorkload) restart(storeDir string, alerts []fleet.Alert, budget time.Duration) (ms []float64, info store.RecoveryInfo, err error) {
	for i, begin := 0, time.Now(); i < restartRepeats || time.Since(begin) < budget; i++ {
		engine := sim.NewEngine()
		clock := func() uint64 { return epoch + uint64(engine.Now()) }
		tl := newTally(w.spec.Devices, nil)
		rec := newRecorder(w.spec.Devices, false)
		col := &replayCollector{ev: w.ev, clock: clock, rec: rec, tally: tl}
		cfg := w.managerConfig(engine, col, clock, passOpts{}, tl, rec)

		runtime.GC() // each restart starts a collection cycle afresh, not in the last one's debt
		start := time.Now()
		var st *store.Store
		if w.durable {
			if st, err = store.Open(storeDir, store.Options{SnapshotEvery: 100_000}); err != nil {
				return nil, info, fmt.Errorf("recovery: %w", err)
			}
			cfg.Store = st
		}
		m, err := fleet.NewManagerWith(cfg)
		if err != nil {
			return nil, info, err
		}
		for _, d := range w.ev.devices {
			if err := m.Register(w.deviceConfig(d)); err != nil {
				return nil, info, err
			}
		}
		m.Start()
		ms = append(ms, float64(time.Since(start))/1e6)

		if st != nil && i == 0 {
			info = st.Recovery()
			if err := sameAlerts(m.Alerts(), alerts); err != nil {
				return nil, info, fmt.Errorf("recovered alert stream differs from the manager's: %w", err)
			}
		}
		if err := m.Close(); err != nil {
			return nil, info, err
		}
		if st != nil {
			if err := st.Close(); err != nil {
				return nil, info, err
			}
		}
	}
	return ms, info, nil
}
