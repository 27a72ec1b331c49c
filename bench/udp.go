package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/fleet"
	"erasmus/internal/hw/imx6"
	"erasmus/internal/session"
	"erasmus/internal/sim"
	"erasmus/internal/udptransport"
)

// udpSpec sizes the udp-loopback workload: Devices provers on the i.MX6
// model behind one fleet server, each measuring every TM and collected
// every TC = TM (k = 1), so Devices/TC collections are offered per
// second whatever the verifier does with them — an open loop.
type udpSpec struct {
	Devices  int
	TM       sim.Ticks
	Slots    int
	MemBytes int
	Pool     int // UDPCollector sockets
}

// Open-loop pacing: the pump advances the manager's engine to the wall
// clock, then sleeps pumpSleep. Metrics are taken per window of
// udpWindow (a quarter of the run when that is shorter); the first
// window holds the bootstrap round (every device falls back to the audit
// tier once) and is discarded.
const (
	pumpSleep = 200 * time.Microsecond
	udpWindow = time.Second
)

type udpDevice struct {
	addr   string
	key    []byte
	golden []byte
	prover *core.Prover
}

// udpFleet is the hosted prover population.
type udpFleet struct {
	spec    udpSpec
	engine  *sim.Engine
	devices []udpDevice
	prefill sim.Ticks // virtual time the buffers were filled over

	srv        *udptransport.Server
	serveStart time.Time
}

// buildProvers boots the provers on a fresh engine and fills their
// buffers in virtual time.
func buildProvers(spec udpSpec, seed int64) (*udpFleet, error) {
	f := &udpFleet{spec: spec, engine: sim.NewEngine(), prefill: sim.Ticks(spec.Slots) * spec.TM}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < spec.Devices; i++ {
		key := make([]byte, 32)
		rng.Read(key)
		dev, err := imx6.New(imx6.Config{
			Engine: f.engine, MemorySize: spec.MemBytes, Key: key,
			StoreSize: spec.Slots * core.RecordSize(benchAlg),
		})
		if err != nil {
			return nil, err
		}
		rng.Read(dev.Memory())
		// Whole-microsecond phases: the i.MX6 clock counts 66 MHz cycles, so
		// it reads exactly only on microsecond boundaries. Off them it lags
		// by a few ns, the schedule sees its instant as still ahead, and the
		// device measures twice within one TM — a schedule gap, not a clean
		// fleet.
		phase := sim.Ticks(rng.Int63n(int64(spec.TM/sim.Microsecond))) * sim.Microsecond
		sched, err := core.NewRegularWithPhase(spec.TM, phase)
		if err != nil {
			return nil, err
		}
		prv, err := core.NewProver(dev, core.ProverConfig{Alg: benchAlg, Schedule: sched, Slots: spec.Slots})
		if err != nil {
			return nil, err
		}
		prv.Start()
		f.devices = append(f.devices, udpDevice{
			addr: deviceAddr(i), key: key, prover: prv,
			golden: mac.HashSum(benchAlg, dev.Memory()),
		})
	}
	f.engine.RunUntil(f.prefill)
	return f, nil
}

// setUpUDP builds the provers and puts them behind a fleet server on a
// loopback socket. From here the server owns the provers' engine and
// paces it against the wall clock.
func setUpUDP(spec udpSpec, seed int64) (*udpFleet, error) {
	f, err := buildProvers(spec, seed)
	if err != nil {
		return nil, err
	}
	f.serveStart = time.Now()
	if f.srv, err = udptransport.ServeFleet("127.0.0.1:0", f.engine, benchAlg); err != nil {
		return nil, err
	}
	for _, d := range f.devices {
		if err := f.srv.Host(d.addr, d.prover); err != nil {
			return nil, errors.Join(err, f.srv.Close())
		}
	}
	return f, nil
}

// clock is the verifier's time base, anchored where the server anchored
// the provers' clocks, so a collected record never leads it.
func (f *udpFleet) clock() uint64 {
	return epoch + uint64(f.prefill) + uint64(time.Since(f.serveStart))
}

// timedCollector wraps the program's UDPCollector to stamp when each
// collection was due and to see its outcome before the manager does.
type timedCollector struct {
	inner  *fleet.UDPCollector
	engine *sim.Engine // the manager's; its time at launch is the due tick
	rec    *recorder
	tally  *tally

	pumpStart int64     // recorder time of engine tick 0
	lateUs    []float64 // how late each launch ran (engine goroutine)
}

var _ fleet.Collector = (*timedCollector)(nil)

func (c *timedCollector) Register(cfg fleet.DeviceConfig) error { return c.inner.Register(cfg) }
func (c *timedCollector) Close() error                          { return c.inner.Close() }

// launch stamps one collection and wraps its callback; the returned
// function accounts a launch the transport refused, which the manager
// applies as a failure.
func (c *timedCollector) launch(addr string, cb func(session.CollectResult, error)) (func(session.CollectResult, error), func(error) error) {
	i := deviceIndex(addr)
	due := c.pumpStart + int64(c.engine.Now())
	now := c.rec.now()
	c.rec.launchedAt[i].Store(due)
	c.lateUs = append(c.lateUs, float64(now-due)/1e3)
	round := c.tally.launch(i)
	failIf := func(err error) error {
		if err != nil {
			c.tally.failed(i, round)
		}
		return err
	}
	return func(res session.CollectResult, err error) {
		c.rec.answered(i, now)
		cb(res, failIf(err))
	}, failIf
}

func (c *timedCollector) Collect(addr string, k int, cb func(session.CollectResult, error)) error {
	cb, refused := c.launch(addr, cb)
	return refused(c.inner.Collect(addr, k, cb))
}

func (c *timedCollector) CollectDelta(addr string, since uint64, k int, cb func(session.CollectResult, error)) error {
	cb, refused := c.launch(addr, cb)
	return refused(c.inner.CollectDelta(addr, since, k, cb))
}

func (c *timedCollector) CollectDeltaAggregate(addr string, since, nonce uint64, anchorHash []byte, k int, cb func(session.CollectResult, error)) error {
	cb, refused := c.launch(addr, cb)
	return refused(c.inner.CollectDeltaAggregate(addr, since, nonce, anchorHash, k, cb))
}

// udpManager builds the verifier side: a UDPCollector pool against the
// fleet server and an aggregate-tier manager with every device
// registered.
func (f *udpFleet) manager(engine *sim.Engine, rec *recorder, tl *tally) (*fleet.Manager, *timedCollector, error) {
	inner, err := fleet.NewUDPCollector(f.srv.Addr().String(), f.spec.Pool)
	if err != nil {
		return nil, nil, err
	}
	col := &timedCollector{inner: inner, engine: engine, rec: rec, tally: tl}
	m, err := fleet.NewManagerWith(fleet.ManagerConfig{
		Engine: engine, Collector: col, Clock: f.clock, Aggregate: true,
		OnReport: func(addr string, rep core.Report) {
			i := deviceIndex(addr)
			tl.report(i, rep)
			rec.verdict(i, false)
		},
	})
	if err != nil {
		return nil, nil, errors.Join(err, inner.Close())
	}
	for _, d := range f.devices {
		err := m.Register(fleet.DeviceConfig{
			Addr: d.addr, Key: d.key, Alg: benchAlg,
			QoA:          core.QoA{TM: f.spec.TM, TC: f.spec.TM},
			GoldenHashes: [][]byte{d.golden},
		})
		if err != nil {
			return nil, nil, errors.Join(err, m.Close())
		}
	}
	return m, col, nil
}

// udpRun is what driving the workload for a while produced.
type udpRun struct {
	samples samples // one value per window
	heap    float64 // live verifier heap per device at the end
	tally   *tally
	rec     *recorder
	lateUs  []float64
	latency []float64 // every verdict latency after the first window
	alerts  []fleet.Alert
}

// drive runs the open loop for the given time: a fresh manager collects
// from every hosted prover once per TC, paced 1:1 against the wall
// clock by the benchmark's own pump.
func (f *udpFleet) drive(seconds float64, traced bool) (*udpRun, error) {
	heapBase := liveHeap()
	engine := sim.NewEngine()
	rec := newRecorder(f.spec.Devices, traced)
	tl := newTally(f.spec.Devices, nil)
	m, col, err := f.manager(engine, rec, tl)
	if err != nil {
		return nil, err
	}
	window := udpWindow
	if quarter := time.Duration(seconds / 4 * float64(time.Second)); quarter < window {
		window = quarter
	}
	perWindow := int(float64(f.spec.Devices) * window.Seconds() / f.spec.TM.Seconds())
	rec.reserve(2 * perWindow)
	if traced {
		rec.rttUs = make([]float64, 0, int(seconds+2)*perWindow)
	}
	col.lateUs = make([]float64, 0, int(seconds+2)*perWindow)

	run := &udpRun{tally: tl, rec: rec}
	m.Start()
	start := time.Now()
	col.pumpStart = rec.now()
	mt, applied := startMeter(), 0
	windowEnd, windows := window, 0
	for {
		elapsed := time.Since(start)
		if elapsed.Seconds() >= seconds {
			break
		}
		engine.RunUntil(sim.Ticks(elapsed))
		if elapsed >= windowEnd {
			r := mt.stop()
			tl.mu.Lock()
			nowApplied := tl.applied()
			tl.mu.Unlock()
			rec.mu.Lock()
			lat := rec.latencyUs
			rec.latencyUs = make([]float64, 0, 2*perWindow)
			rec.mu.Unlock()
			if windows > 0 && nowApplied > applied {
				run.latency = append(run.latency, lat...)
				run.samples.add(r, nowApplied-applied, lat)
			}
			applied = nowApplied
			windows++
			windowEnd += window
			mt = startMeter()
		}
		time.Sleep(pumpSleep)
	}
	m.Stop()
	m.Flush()

	run.lateUs = col.lateUs
	run.alerts = m.Alerts()
	// Heap is read once, with the manager and its watermarks still live.
	run.heap = (float64(liveHeap()) - float64(heapBase)) / float64(f.spec.Devices)
	if err := m.Close(); err != nil {
		return nil, err
	}
	if len(run.samples.perS) == 0 {
		return nil, fmt.Errorf("no measured window in %.1f s: the run must outlast the warm-up window", seconds)
	}
	if len(run.alerts) != 0 {
		return nil, fmt.Errorf("clean fleet raised %d alerts, first %+v", len(run.alerts), run.alerts[0])
	}
	return run, nil
}

// restart times building the verifier side from nothing: socket pool,
// manager, registration, scheduling.
func (f *udpFleet) restart(budget time.Duration) ([]float64, error) {
	var ms []float64
	for i, begin := 0, time.Now(); i < restartRepeats || time.Since(begin) < budget; i++ {
		runtime.GC() // as in replayWorkload.restart
		start := time.Now()
		m, _, err := f.manager(sim.NewEngine(), newRecorder(f.spec.Devices, false), newTally(f.spec.Devices, nil))
		if err != nil {
			return nil, err
		}
		m.Start()
		ms = append(ms, float64(time.Since(start))/1e6)
		if err := m.Close(); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// setUpUDPRepeated sets up setupRepeats times and keeps the last fleet.
func setUpUDPRepeated(w workload, o runOptions) (*udpFleet, []float64, error) {
	var f *udpFleet
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			if err := f.srv.Close(); err != nil {
				return nil, nil, err
			}
		}
		start := time.Now()
		var err error
		if f, err = setUpUDP(*w.udp, o.seed); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return f, secs, nil
}

// runUDP is the untraced run of udp-loopback.
func runUDP(w workload, o runOptions, out *result) error {
	f, setupSecs, err := setUpUDPRepeated(w, o)
	if err != nil {
		return err
	}
	err = f.measure(o, setupSecs, out)
	return errors.Join(err, f.srv.Close())
}

func (f *udpFleet) measure(o runOptions, setupSecs []float64, out *result) error {
	run, err := f.drive(o.seconds, false)
	if err != nil {
		return err
	}
	recovery, err := f.restart(o.restartBudget())
	if err != nil {
		return err
	}
	run.samples.report(out.Metrics)
	out.Metrics.set("heap_bytes_per_device", run.heap)
	out.Metrics.setFrom("recovery_ms", recovery)
	out.Metrics.setFrom("setup_s", setupSecs)
	out.Attempted, out.Failed = run.tally.launched, failedOf(run.tally)
	out.Correct = out.Failed == 0
	out.AlertDigest = alertDigest(run.alerts)
	return nil
}
