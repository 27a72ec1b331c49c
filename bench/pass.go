package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/fleet"
	"erasmus/internal/obs"
	"erasmus/internal/sim"
	"erasmus/internal/store"
)

// meter brackets a timed region: wall clock, process CPU and heap
// allocation counters.
type meter struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

// reading is what a timed region cost.
type reading struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuTime()
	m.start = time.Now()
	return m
}

func (m *meter) stop() reading {
	wall := time.Since(m.start)
	cpu := cpuTime() - m.cpu
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return reading{wall: wall, cpu: cpu, mallocs: after.Mallocs - m.mem.Mallocs, bytes: after.TotalAlloc - m.mem.TotalAlloc}
}

// liveHeap is the heap in use after two full collections: the first moves
// what sync.Pools hold to their victim caches, the second frees it, so the
// reading does not depend on when the last pass's pools were last swept.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// replayWorkload is one replay-driven workload after set-up: its
// evidence and the oracle every pass is checked against.
type replayWorkload struct {
	workload
	ev      *evidence
	expect  [][]uint8     // oracle outcome per device and round
	alerts  []fleet.Alert // oracle alert stream
	scratch string        // directory for store files
	passes  int           // store directories handed out
}

// passOpts selects how one pass drives the manager.
type passOpts struct {
	oracle bool // synchronous, stateless full collection, no store; records the expected outcomes
	inline bool // ManagerConfig.Synchronous on the workload's own tier
	traced bool // benchmark spans and layer timings
	obs    bool // manager built with a metrics registry and a span tracer
	pass   int  // index of the pass within its loop: sizes the layout ballast
}

// layoutBallast returns a block whose size depends on the pass index, to
// be kept live while the pass runs. Where a pass's manager, queues and
// buffers land in the heap moves CPU time per collection by several
// percent, and a process hands every pass the same addresses again, so
// the shift is per process: runs of one binary on one seed differed by up
// to 9 %, ten times what their pass-to-pass noise predicts. The ballast
// moves each pass to other addresses, which turns that bias into
// pass-to-pass noise the median over passes removes (same-seed runs then
// agree within 2.5 %). It holds no pointers and is dropped before the
// heap is read.
func layoutBallast(pass int) []byte {
	b := make([]byte, (1+pass*7%23)<<20)
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1 // touch every page, so the heap really extends
	}
	return b
}

// passResult is one pass's measurements and evidence of correctness.
type passResult struct {
	reading
	engineWall time.Duration // RunUntil alone: the engine goroutine's share of wall
	heap       uint64        // live heap at the end of the pass, manager still open
	tally      *tally
	rec        *recorder
	alerts     []fleet.Alert
	storeDir   string

	// durable-mixed only
	syncMs   []float64 // each Store.Sync the round ticker issued
	pollUs   []float64 // each Statuses+Health+AlertsSince poll
	walBytes int64     // WAL bytes appended over the pass
}

// managerConfig is the ManagerConfig of a pass, apart from the store.
// VerifyWorkers, QueueDepth and BatchLimit stay at their defaults.
func (w *replayWorkload) managerConfig(e *sim.Engine, col fleet.Collector, clock func() uint64, o passOpts, tl *tally, rec *recorder) fleet.ManagerConfig {
	cfg := fleet.ManagerConfig{
		Engine: e, Collector: col, Clock: clock,
		Synchronous: o.oracle || o.inline,
		Aggregate:   w.aggregate && !o.oracle,
	}
	inline := cfg.Synchronous
	cfg.OnReport = func(addr string, rep core.Report) {
		i := deviceIndex(addr)
		tl.report(i, rep)
		rec.verdict(i, inline)
	}
	if o.obs {
		cfg.Obs = obs.NewRegistry()
		cfg.Tracer = obs.NewTracer(4096)
	}
	return cfg
}

func (w *replayWorkload) deviceConfig(d *devEvidence) fleet.DeviceConfig {
	return fleet.DeviceConfig{
		Addr: d.addr, Key: d.key, Alg: benchAlg,
		QoA:          core.QoA{TM: w.spec.TM, TC: w.spec.TC()},
		GoldenHashes: [][]byte{d.golden},
	}
}

// runPass drives one fresh engine and manager over the evidence to the
// horizon and returns what the timed region (RunUntil + Flush) cost. The
// alert stream is checked against the oracle before returning.
func (w *replayWorkload) runPass(o passOpts) (res passResult, err error) {
	spec := w.spec
	ballast := layoutBallast(o.pass)
	engine := sim.NewEngine()
	rec := newRecorder(spec.Devices, o.traced)
	tl := newTally(spec.Devices, w.expect)
	tl.record = o.oracle
	clock := func() uint64 { return epoch + uint64(engine.Now()) }
	col := &replayCollector{ev: w.ev, clock: clock, rec: rec, tally: tl}
	cfg := w.managerConfig(engine, col, clock, o, tl, rec)

	var st *store.Store
	if w.durable && !o.oracle {
		w.passes++
		res.storeDir = fmt.Sprintf("%s/pass-%03d", w.scratch, w.passes)
		if st, err = store.Open(res.storeDir, store.Options{SnapshotEvery: 100_000}); err != nil {
			return res, err
		}
		cfg.Store = st
	}
	m, err := fleet.NewManagerWith(cfg)
	if err != nil {
		return res, err
	}
	for _, d := range w.ev.devices {
		if err := m.Register(w.deviceConfig(d)); err != nil {
			return res, err
		}
	}

	// durable-mixed: an alert subscriber and a once-per-round dashboard
	// poll and journal sync ride along with the verdict path.
	var watched chan []fleet.StreamedAlert
	var sub *obs.Subscription[fleet.StreamedAlert]
	var tickErr error
	if st != nil {
		sub = m.WatchAlerts(4096) // deeper than a round's worth of alerts, so a drained subscriber never gaps
		watched = make(chan []fleet.StreamedAlert, 1)
		go func() {
			var got []fleet.StreamedAlert
			for a := range sub.Ch() {
				got = append(got, a)
			}
			watched <- got
		}()
		var cursor uint64
		lastWAL := st.Stats().WALBytes
		engine.Ticker(spec.TC(), spec.TC(), func() {
			t0 := time.Now()
			if err := st.Sync(); err != nil && tickErr == nil {
				tickErr = err
			}
			t1 := time.Now()
			m.Statuses()
			m.Health()
			news, _ := m.AlertsSince(cursor)
			cursor += uint64(len(news))
			res.pollUs = append(res.pollUs, float64(time.Since(t1))/1e3)
			res.syncMs = append(res.syncMs, float64(t1.Sub(t0))/1e6)
			// A snapshot truncates the log, so the total is the sum of the
			// growth between reads.
			now := st.Stats().WALBytes
			if now < lastWAL {
				lastWAL = 0
			}
			res.walBytes += now - lastWAL
			lastWAL = now
		})
	}

	m.Start()
	rec.reserve(spec.Devices * spec.Rounds)
	mt := startMeter()
	engine.RunUntil(spec.horizon())
	res.engineWall = time.Since(mt.start)
	m.Flush()
	res.reading = mt.stop()
	runtime.KeepAlive(ballast)
	ballast = nil

	if col.err != nil {
		return res, errors.Join(fmt.Errorf("load source: %w", col.err), m.Close())
	}
	res.tally, res.rec = tl, rec
	res.alerts = m.Alerts()
	res.heap = liveHeap()
	if err := m.Close(); err != nil {
		return res, fmt.Errorf("manager close: %w", err)
	}
	if o.oracle {
		return res, nil
	}

	if err := sameAlerts(res.alerts, w.alerts); err != nil {
		return res, fmt.Errorf("alert stream differs from the oracle: %w", err)
	}
	if st != nil {
		got := <-watched
		if sub.TakeGap() {
			return res, errors.New("alert subscriber was gapped")
		}
		if len(got) != len(res.alerts) {
			return res, fmt.Errorf("alert subscriber saw %d alerts, manager holds %d", len(got), len(res.alerts))
		}
		for i, a := range got {
			if a.Seq != uint64(i+1) || a.Alert != res.alerts[i] {
				return res, fmt.Errorf("alert subscriber item %d is %+v, manager holds %+v", i, a, res.alerts[i])
			}
		}
		if tickErr != nil {
			return res, fmt.Errorf("store sync: %w", tickErr)
		}
		if err := st.Close(); err != nil {
			return res, fmt.Errorf("store close: %w", err)
		}
	}
	return res, nil
}

// sameAlerts reports the first difference between two alert streams.
func sameAlerts(got, want []fleet.Alert) error {
	for i := range got {
		if i >= len(want) {
			break
		}
		if got[i] != want[i] {
			return fmt.Errorf("alert %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d alerts, want %d", len(got), len(want))
	}
	return nil
}

// alertDigest condenses an alert stream for same-seed comparisons.
func alertDigest(alerts []fleet.Alert) string {
	h := sha256.New()
	for _, a := range alerts {
		var t [8]byte
		binary.BigEndian.PutUint64(t[:], uint64(a.Time))
		h.Write(t[:])
		for _, s := range []string{a.Device, string(a.Kind), a.Detail} {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// setUpReplay generates the evidence and runs the oracle pass over it: a
// synchronous, stateless, store-less manager whose alert stream and
// per-collection outcomes every later pass must reproduce. The oracle
// itself is checked against the adversary plan and the paper's detection
// bound.
func setUpReplay(w workload, seed int64, scratch string) (*replayWorkload, error) {
	ev, err := generateEvidence(w.spec, seed)
	if err != nil {
		return nil, err
	}
	rw := &replayWorkload{workload: w, ev: ev, scratch: scratch}
	res, err := rw.runPass(passOpts{oracle: true})
	if err != nil {
		return nil, fmt.Errorf("oracle pass: %w", err)
	}
	rw.expect, rw.alerts = res.tally.got, res.alerts
	if err := rw.checkPlan(); err != nil {
		return nil, fmt.Errorf("oracle disagrees with the adversary plan: %w", err)
	}
	if r := rw.detectionDelayRatio(rw.alerts); r > 1 {
		return nil, fmt.Errorf("an infection was detected after %.3f × (TM + TC): the paper's bound is broken", r)
	}
	return rw, nil
}

// checkPlan verifies that the oracle raised exactly the alerts the plan
// calls for: an infection alert on each infected device, a tamper alert
// on each tampered one, unreachable then recovered on each silent one,
// and nothing on the rest.
func (w *replayWorkload) checkPlan() error {
	kinds := make([]map[fleet.AlertKind]int, len(w.ev.devices))
	for _, a := range w.alerts {
		i := deviceIndex(a.Device)
		if kinds[i] == nil {
			kinds[i] = make(map[fleet.AlertKind]int)
		}
		kinds[i][a.Kind]++
	}
	for i, d := range w.ev.devices {
		got := kinds[i]
		var want fleet.AlertKind
		switch {
		case d.infectedFrom != 0:
			want = fleet.AlertInfection
		case d.tamperAt != 0:
			want = fleet.AlertTamper
		case d.silentTo != 0:
			want = fleet.AlertUnreachable
		case len(got) != 0:
			return fmt.Errorf("%s is clean in the plan but raised %v", d.addr, got)
		default:
			continue
		}
		if got[want] == 0 || got[fleet.AlertRecovered] == 0 {
			return fmt.Errorf("%s should raise %s then recover, raised %v", d.addr, want, got)
		}
	}
	return nil
}

// detectionDelayRatio is the worst planned infection's detection delay —
// virtual time from the first measurement of infected memory to the
// infection alert — as a share of the paper's bound TM + TC.
func (w *replayWorkload) detectionDelayRatio(alerts []fleet.Alert) float64 {
	first := make(map[string]sim.Ticks)
	for _, a := range alerts {
		if _, seen := first[a.Device]; !seen && a.Kind == fleet.AlertInfection {
			first[a.Device] = a.Time
		}
	}
	worst := 0.0
	for _, d := range w.ev.devices {
		if d.infectedFrom == 0 {
			continue
		}
		delay := first[d.addr] - sim.Ticks(d.infectedFrom-epoch)
		if r := float64(delay) / float64(w.spec.TM+w.spec.TC()); r > worst {
			worst = r
		}
	}
	return worst
}

// removeStores deletes the store directories of finished passes.
func (w *replayWorkload) removeStores() error {
	if !w.durable {
		return nil
	}
	return os.RemoveAll(w.scratch)
}
