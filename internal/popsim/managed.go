package popsim

import (
	"errors"
	"fmt"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/fleet"
	"erasmus/internal/hw/imx6"
	"erasmus/internal/hw/mcu"
	"erasmus/internal/netsim"
	"erasmus/internal/obs"
	"erasmus/internal/session"
	"erasmus/internal/sim"
	"erasmus/internal/store"
	"erasmus/internal/udptransport"
)

// verifierEpoch anchors the manager's clock to the device RROC epoch
// (identical for both device models).
const verifierEpoch = mcu.DefaultEpoch

// ManagedConfig parameterizes a fleet-managed population run: the same
// seeded per-device scenario generation as the sharded runtime, but driven
// end-to-end through fleet.Manager — staggered collection scheduling over
// a pluggable transport, the bounded asynchronous verification pipeline,
// and the alert stream.
type ManagedConfig struct {
	// Population is the number of prover devices. Required.
	Population int
	// Transport selects the collection path: "sim" (default, the
	// in-process simulated network — virtual time, instant) or "udp"
	// (real loopback sockets — wall-paced, so keep QoA and Duration in
	// the milliseconds-to-seconds range).
	Transport string
	// Seed drives every per-device random draw.
	Seed int64
	// Alg is the measurement MAC (default keyed BLAKE2s).
	Alg mac.Algorithm
	// QoA sets TM/TC for every device (default TM=10m, TC=4×TM).
	QoA core.QoA
	// Slots is the per-device buffer size (default minimum + 2).
	Slots int
	// Duration is the simulated horizon (default 6×TC).
	Duration sim.Ticks
	// IMX6Fraction of devices are i.MX6-class; the rest are MSP430-class.
	IMX6Fraction float64
	// MSP430Memory / IMX6Memory are attested image sizes in bytes.
	MSP430Memory, IMX6Memory int
	// Loss is the datagram loss probability of the simulated network
	// ("sim" transport only; real loopback sockets do not lose packets).
	Loss float64
	// Latency is the one-way delivery delay of the simulated network.
	Latency sim.Ticks
	// LateJoinFraction of devices register with the manager (and boot)
	// only part-way through the run, exercising warm-up leniency.
	LateJoinFraction float64
	// JoinWindow bounds late-join times; default Duration/2.
	JoinWindow sim.Ticks
	// Wave configures the infection wave.
	Wave WaveConfig
	// VerifyWorkers / QueueDepth size the manager's verification pipeline.
	VerifyWorkers, QueueDepth int
	// UnreachableAfter is the manager's consecutive-failure threshold.
	UnreachableAfter int
	// Synchronous verifies inline instead of through the pipeline.
	Synchronous bool
	// AdaptiveSchedule turns on the manager's per-device TC controller:
	// collection periods tighten on aging/withheld evidence and transport
	// failures, relax on sustained freshness and verifier backpressure,
	// clamped to [TC/2, 2·TC] (see fleet.ManagerConfig.AdaptiveSchedule).
	// Off by default: the base schedule stays bit-identical to prior runs.
	AdaptiveSchedule bool
	// Delta enables incremental collection: the manager keeps per-device
	// watermarks and fetches + verifies only the records measured since
	// the previous round (see fleet.ManagerConfig.Delta).
	//
	// On the virtual-time "sim" transport, Delta forces Synchronous: an
	// async delta round needs the previous verdict applied before the
	// next launch, and a virtual-time engine outruns the pipeline, so
	// every round would silently fall back to a full collection —
	// verdict-identical but never incremental. Wall-paced transports
	// ("udp") keep the async pipeline: real time gives verdicts room to
	// land between rounds.
	Delta bool
	// Aggregate enables the O(1) aggregate tier on top of Delta (which it
	// implies): incremental rounds carry the prover's chain head under one
	// MAC and the verifier re-walks the chain hash-only instead of
	// recomputing per-record MACs (see fleet.ManagerConfig.Aggregate).
	// Verdicts and alerts are identical to Delta mode by construction. On
	// the "sim" transport it forces Synchronous for the same reason Delta
	// does.
	Aggregate bool
	// UDPPool is the socket-pool size of the UDP collector (default 8).
	UDPPool int
	// StateDir, when non-empty, makes the manager's verifier state
	// durable: watermarks, per-device status and alerts are journaled to
	// a store.Store write-ahead log in that directory, compacted into a
	// snapshot when the run completes. A run over a directory holding
	// previous state recovers it first (ManagedResult.Recovery).
	StateDir string
	// Obs, when set, registers every metric family the run touches —
	// fleet scheduling, per-shard verification latency, the durable store
	// (StateDir runs) and population gauges — on the registry. Tracer
	// records one span per applied collection; Events receives structured
	// operational events (alerts, configuration decisions). All three are
	// optional and inert when nil, and enabling them never changes alerts
	// or verdicts (enforced by TestObservabilityEquivalence).
	Obs    *obs.Registry
	Tracer *obs.Tracer
	Events *obs.EventLog
}

// ManagedResult aggregates one fleet-managed run.
type ManagedResult struct {
	Config ManagedConfig
	// Alerts is the manager's full alert stream.
	Alerts []fleet.Alert
	// AlertCounts tallies the stream by kind.
	AlertCounts map[fleet.AlertKind]int
	// Devices, LateJoiners and InfectionsSeeded describe the scenario;
	// InfectionsDetected counts seeded devices with at least one
	// infection alert, FalseInfections counts clean devices alerted.
	Devices, LateJoiners int
	InfectionsSeeded     int
	InfectionsDetected   int
	FalseInfections      int
	HealthyCount         int
	// DeltaRounds counts collections that genuinely verified
	// incrementally (Report.DeltaApplied); always 0 without Delta.
	DeltaRounds int
	// AggregateRounds counts collections the aggregate tier accepted
	// (Report.AggregateApplied); AggregateFallbacks counts rounds whose
	// evidence was present but whose verdict came from the per-record
	// audit tier. Both are 0 without Aggregate.
	AggregateRounds, AggregateFallbacks int
	// Recovery and StoreStats describe the durable state store when
	// StateDir is set: what opening the directory recovered, and the
	// store's footprint after the end-of-run snapshot.
	Recovery           *store.RecoveryInfo
	StoreStats         *store.Stats
	BuildWall, RunWall time.Duration
}

func (c *ManagedConfig) fill() (*Config, error) {
	switch c.Transport {
	case "":
		c.Transport = "sim"
	case "sim", "udp":
	default:
		return nil, fmt.Errorf("popsim: unknown transport %q (want sim or udp)", c.Transport)
	}
	if c.Transport == "udp" && c.Loss > 0 {
		return nil, errors.New("popsim: the udp transport cannot simulate datagram loss")
	}
	if c.Latency < 0 {
		return nil, fmt.Errorf("popsim: negative latency %v", c.Latency)
	}
	if c.UDPPool <= 0 {
		c.UDPPool = 8
	}
	if c.Aggregate {
		c.Delta = true
	}
	if c.Transport == "sim" && c.Delta {
		// Delta on a virtual-time engine requires synchronous verification
		// to ever engage (see the Delta field comment): force it rather
		// than silently running a vacuous configuration. Wall-paced
		// transports are untouched.
		if !c.Synchronous {
			c.Events.Emit(obs.Event{
				Subsystem: "popsim", Kind: "force_synchronous",
				Detail: "delta on the sim transport forces synchronous verification (virtual time outruns the async pipeline)",
			})
		}
		c.Synchronous = true
	}
	// Reuse the sharded runtime's validation and per-device planning.
	pc := &Config{
		Population: c.Population, Shards: 1, Seed: c.Seed, Alg: c.Alg,
		QoA: c.QoA, Slots: c.Slots, Duration: c.Duration,
		IMX6Fraction: c.IMX6Fraction,
		MSP430Memory: c.MSP430Memory, IMX6Memory: c.IMX6Memory,
		Loss:  c.Loss,
		Churn: ChurnConfig{LateJoinFraction: c.LateJoinFraction, JoinWindow: c.JoinWindow},
		Wave:  c.Wave,
	}
	if err := pc.fillDefaults(); err != nil {
		return nil, err
	}
	c.Alg, c.QoA, c.Slots, c.Duration = pc.Alg, pc.QoA, pc.Slots, pc.Duration
	c.MSP430Memory, c.IMX6Memory = pc.MSP430Memory, pc.IMX6Memory
	c.JoinWindow, c.Wave = pc.Churn.JoinWindow, pc.Wave
	return pc, nil
}

// managedDevice is one prover plus its provisioning, shared by both
// transports.
type managedDevice struct {
	plan   devicePlan
	addr   string
	key    []byte
	dev    attDevice
	prv    *core.Prover
	golden []byte
}

// buildManagedDevice constructs one device on the engine and schedules its
// infection timeline (the clean golden hash is captured first).
func buildManagedDevice(e *sim.Engine, cfg *ManagedConfig, p devicePlan) (*managedDevice, error) {
	key := deviceKey(cfg.Seed, p.id)
	storeSize := cfg.Slots * core.RecordSize(cfg.Alg)
	var dev attDevice
	if p.imx6 {
		d, err := imx6.New(imx6.Config{
			Engine: e, MemorySize: cfg.IMX6Memory, StoreSize: storeSize, Key: key,
		})
		if err != nil {
			return nil, err
		}
		dev = d
	} else {
		d, err := mcu.New(mcu.Config{
			Engine: e, MemorySize: cfg.MSP430Memory, StoreSize: storeSize, Key: key,
		})
		if err != nil {
			return nil, err
		}
		dev = d
	}
	sched, err := core.NewRegularWithPhase(cfg.QoA.TM, p.mphase)
	if err != nil {
		return nil, err
	}
	prv, err := core.NewProver(dev, core.ProverConfig{Alg: cfg.Alg, Schedule: sched, Slots: cfg.Slots})
	if err != nil {
		return nil, err
	}
	md := &managedDevice{
		plan: p, addr: fmt.Sprintf("dev-%06d", p.id), key: key,
		dev: dev, prv: prv,
		golden: mac.HashSum(cfg.Alg, dev.Memory()),
	}
	if p.infect >= 0 {
		clean := make([]byte, len(implant))
		e.At(p.infect, func() {
			if err := dev.WriteMemory(0, implant); err != nil {
				panic(err)
			}
		})
		if p.dwell > 0 {
			e.At(p.infect+p.dwell, func() {
				if err := dev.WriteMemory(0, clean); err != nil {
					panic(err)
				}
			})
		}
	}
	return md, nil
}

func (md *managedDevice) deviceConfig(cfg *ManagedConfig) fleet.DeviceConfig {
	return fleet.DeviceConfig{
		Addr: md.addr, Key: md.key, Alg: cfg.Alg, QoA: cfg.QoA,
		GoldenHashes: [][]byte{md.golden},
	}
}

func (cfg *ManagedConfig) managerConfig(e *sim.Engine, col fleet.Collector, clock func() uint64, st *store.Store, r *ManagedRun) fleet.ManagerConfig {
	mc := fleet.ManagerConfig{
		Engine: e, Collector: col, Clock: clock,
		VerifyWorkers: cfg.VerifyWorkers, QueueDepth: cfg.QueueDepth,
		UnreachableAfter: cfg.UnreachableAfter,
		Synchronous:      cfg.Synchronous,
		AdaptiveSchedule: cfg.AdaptiveSchedule,
		Delta:            cfg.Delta,
		Aggregate:        cfg.Aggregate,
		Store:            st,
		Obs:              cfg.Obs,
		Tracer:           cfg.Tracer,
		Events:           cfg.Events,
	}
	if cfg.Delta {
		// Count the rounds that genuinely verified incrementally (the
		// regression signal for the virtual-time fallback bug this field
		// was added to expose) and, in aggregate mode, how they verified:
		// accepted by the O(1) tier or audited record-by-record. OnReport
		// runs serialized under the manager's lock, in verdict-application
		// order.
		mc.OnReport = func(addr string, rep core.Report) {
			if rep.DeltaApplied {
				r.deltaRounds++
			}
			if rep.AggregateApplied {
				r.aggRounds++
			}
			if rep.AggregateFallback {
				r.aggFallbacks++
			}
		}
	}
	return mc
}

// openState opens the durable state store when StateDir is configured.
func (cfg *ManagedConfig) openState() (*store.Store, error) {
	if cfg.StateDir == "" {
		return nil, nil
	}
	return store.Open(cfg.StateDir, store.Options{Metrics: store.NewMetrics(cfg.Obs)})
}

// closeState compacts and closes the store, folding what Open recovered
// and the post-snapshot footprint into the result.
func closeState(res *ManagedResult, st *store.Store) error {
	if st == nil {
		return nil
	}
	ri := st.Recovery()
	res.Recovery = &ri
	if err := st.Snapshot(); err != nil {
		st.Close() //erasmus:allow(droppederr) best-effort release; the snapshot error it would echo is already being returned
		return err
	}
	stats := st.Stats()
	res.StoreStats = &stats
	return st.Close()
}

// RunManaged executes a fleet-managed population scenario to its horizon
// and returns the aggregated result: StartManaged → RunToHorizon → Finish.
func RunManaged(cfg ManagedConfig) (*ManagedResult, error) {
	run, err := StartManaged(cfg)
	if err != nil {
		return nil, err
	}
	run.RunToHorizon()
	return run.Finish()
}

// ManagedRun is a live fleet-managed scenario: devices built and booted,
// manager started, collections ticking — but the engine not yet driven to
// the horizon. RunManaged drives it to completion in one call; a
// long-running process (erasmus-fleet -serve) instead pumps the engine
// incrementally with Pump while reading Manager state between steps.
//
// The driving methods (RunToHorizon, Pump, Finish) must be called from one
// goroutine — they advance the engine, which is single-threaded. Manager
// accessors (Alerts, Statuses, Health) and the observability surfaces are
// safe from any goroutine.
type ManagedRun struct {
	cfg     *ManagedConfig
	engine  *sim.Engine // the manager's engine (shared with devices on "sim")
	mgr     *fleet.Manager
	st      *store.Store
	srv     *udptransport.Server // "udp" only
	devices []*managedDevice

	res          *ManagedResult
	runStart     time.Time
	deltaRounds  int
	aggRounds    int
	aggFallbacks int
	vt           *obs.Gauge // virtual time of the engine, ns

	// "udp" with a registry only: the collector's transport counters,
	// mirrored into gauges whenever the engine is pumped.
	udpStats  func() udptransport.Stats
	udpGauges [7]*obs.Gauge
}

// udpCounterNames label the erasmus_udp_client series, in the order
// publish fills them.
var udpCounterNames = [7]string{"sent", "received", "retransmits", "timeouts", "stale", "malformed", "socket_errors"}

// publish refreshes the gauges that mirror state owned elsewhere: the
// engine's virtual time and, over UDP, what the transport did to the
// collections (retries, timeouts and dropped datagrams are invisible in
// the alert stream until they add up to an unreachable device).
func (r *ManagedRun) publish() {
	r.vt.Set(int64(r.engine.Now()))
	if r.udpStats == nil {
		return
	}
	st := r.udpStats()
	for i, v := range [7]uint64{st.Sent, st.Received, st.Retransmits, st.Timeouts, st.Stale, st.Malformed, st.SocketErrors} {
		r.udpGauges[i].Set(int64(v))
	}
}

// StartManaged builds a managed scenario and starts its collection
// schedule. The caller must finish with Finish (or drive with RunManaged's
// sequence) to release sockets and the state store.
//
//erasmus:wallpaced BuildWall and the run-wall anchor time real setup; device plans derive from seeded streams only
func StartManaged(cfg ManagedConfig) (*ManagedRun, error) {
	pc, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	plans := make([]devicePlan, cfg.Population)
	for id := range plans {
		plans[id] = planDevice(pc, id)
	}
	buildStart := time.Now()
	r := &ManagedRun{cfg: &cfg}
	if cfg.Transport == "udp" {
		err = r.startUDP(plans)
	} else {
		err = r.startSim(plans)
	}
	if err != nil {
		r.cleanup()
		return nil, err
	}
	if cfg.Obs != nil {
		cfg.Obs.Gauge("erasmus_popsim_devices",
			"Prover devices simulated by the population run.").Set(int64(cfg.Population))
		r.vt = cfg.Obs.Gauge("erasmus_popsim_virtual_time_ns",
			"Virtual time of the population engine.")
	}
	if cfg.Events != nil && r.st != nil {
		// Whatever opening the state directory had to say — replay
		// summary, torn tails, quarantined segments — goes to the event
		// log, where /eventz can show it for the life of the process.
		ri := r.st.Recovery()
		if ri.SnapshotSeq > 0 || ri.SegmentsReplayed > 0 {
			cfg.Events.Emit(obs.Event{
				Subsystem: "store", Kind: "recovery",
				Detail: fmt.Sprintf("snapshot seq %d (%d devices), %d segments / %d records replayed, torn tail %v",
					ri.SnapshotSeq, ri.SnapshotDevices, ri.SegmentsReplayed, ri.RecordsReplayed, ri.TornTail),
			})
		}
		for _, name := range ri.Quarantined {
			cfg.Events.Emit(obs.Event{
				Subsystem: "store", Kind: "quarantine", Detail: name,
			})
		}
		for _, note := range ri.Notes {
			cfg.Events.Emit(obs.Event{
				Subsystem: "store", Kind: "recovery_note", Detail: note,
			})
		}
	}
	r.res = &ManagedResult{Config: cfg, BuildWall: time.Since(buildStart)}
	r.runStart = time.Now()
	r.mgr.Start()
	return r, nil
}

// Manager exposes the live fleet manager (alerts, statuses, health).
func (r *ManagedRun) Manager() *fleet.Manager { return r.mgr }

// Engine exposes the manager-side engine. Read it only from the driving
// goroutine; use Pump to advance it.
func (r *ManagedRun) Engine() *sim.Engine { return r.engine }

// RunToHorizon drives the engine to the configured Duration: instantly in
// virtual time on the sim transport, wall-paced on udp (at
// fleet.PumpRealTime's default granularity, as Pump is).
func (r *ManagedRun) RunToHorizon() {
	if r.cfg.Transport == "udp" {
		fleet.PumpRealTime(r.engine, r.cfg.Duration, 0)
	} else if r.engine.Now() < r.cfg.Duration {
		r.engine.RunUntil(r.cfg.Duration)
	}
	r.publish()
}

// Pump advances the engine against the wall clock until the absolute
// virtual time until — one virtual nanosecond per wall nanosecond, so a
// sim-transport fleet behaves like a live deployment while HTTP handlers
// read the manager between steps. Returns when the engine reaches until.
func (r *ManagedRun) Pump(until sim.Ticks) {
	fleet.PumpRealTime(r.engine, until, 0)
	r.publish()
}

// Finish stops collection, drains in-flight verdicts, folds the end state
// into the result, and releases the manager, transport and state store.
//
//erasmus:wallpaced RunWall is a result timing field; alerts and verdicts were already fixed by virtual time
func (r *ManagedRun) Finish() (*ManagedResult, error) {
	r.mgr.Stop()
	if r.cfg.Transport != "udp" {
		// Drain collections still in flight at the horizon so the sim
		// transport applies the same tail verdicts the UDP transport waits
		// out in Flush: with the tickers stopped, run the engine through
		// the session client's full retry budget plus round-trip latency,
		// then wait for the last verdicts to be applied.
		r.engine.RunUntil(r.engine.Now() + 2*sim.Second + 2*r.cfg.Latency)
	}
	r.mgr.Flush()
	r.publish()
	r.res.RunWall = time.Since(r.runStart)
	r.res.finish(r.mgr, r.devices)
	r.res.DeltaRounds = r.deltaRounds
	r.res.AggregateRounds = r.aggRounds
	r.res.AggregateFallbacks = r.aggFallbacks
	if r.srv != nil {
		defer r.srv.Close()
	}
	if err := r.mgr.Close(); err != nil {
		if r.st != nil {
			r.st.Close() //erasmus:allow(droppederr) best-effort release; the manager's durability error is already being returned
		}
		return nil, err
	}
	return r.res, closeState(r.res, r.st)
}

// cleanup releases partially-constructed run resources on a start error.
func (r *ManagedRun) cleanup() {
	if r.srv != nil {
		r.srv.Close()
	}
	if r.st != nil {
		r.st.Close() //erasmus:allow(droppederr) best-effort release on a start that already failed; that error wins
	}
}

// startSim builds the scenario over the simulated network in virtual time:
// devices, network and manager share one engine.
func (r *ManagedRun) startSim(plans []devicePlan) error {
	cfg := r.cfg
	engine := sim.NewEngine()
	r.engine = engine
	nw, err := netsim.New(engine, netsim.Config{
		Latency: cfg.Latency, LossRate: cfg.Loss, Seed: cfg.Seed + 1,
	})
	if err != nil {
		return err
	}
	clock := func() uint64 { return verifierEpoch + uint64(engine.Now()) }
	col, err := fleet.NewSimCollector(nw, engine, "fleet-hq", clock)
	if err != nil {
		return err
	}
	if r.st, err = cfg.openState(); err != nil {
		return err
	}
	mgr, err := fleet.NewManagerWith(cfg.managerConfig(engine, col, clock, r.st, r))
	if err != nil {
		return err
	}
	r.mgr = mgr

	for _, p := range plans {
		md, err := buildManagedDevice(engine, cfg, p)
		if err != nil {
			return err
		}
		r.devices = append(r.devices, md)
		enroll := func() error {
			if _, err := session.AttachProver(nw, engine, md.addr, md.prv, cfg.Alg); err != nil {
				return err
			}
			md.prv.Start()
			return mgr.Register(md.deviceConfig(cfg))
		}
		if p.join == 0 {
			if err := enroll(); err != nil {
				return err
			}
		} else {
			engine.At(p.join, func() {
				if err := enroll(); err != nil {
					panic(err)
				}
			})
		}
	}
	return nil
}

// startUDP builds the scenario over real loopback sockets: provers live on
// one wall-paced engine behind a multi-prover UDP server, the manager on a
// second wall-paced engine, and the two meet only on the wire.
//
//erasmus:wallpaced the udp transport is wall-paced by design; the verifier clock is anchored to the server's wall epoch
func (r *ManagedRun) startUDP(plans []devicePlan) error {
	cfg := r.cfg
	proverEngine := sim.NewEngine()
	for _, p := range plans {
		md, err := buildManagedDevice(proverEngine, cfg, p)
		if err != nil {
			return err
		}
		r.devices = append(r.devices, md)
		// Late joiners boot at their join time; everything is scheduled
		// before the server takes ownership of the engine.
		if p.join == 0 {
			md.prv.Start()
		} else {
			start := md.prv.Start
			proverEngine.At(p.join, func() { start() })
		}
	}

	// The manager's clock is anchored to the server's wall epoch, so
	// collected records can never lead it by more than a round trip.
	serveStart := time.Now()
	srv, err := udptransport.ServeFleet("127.0.0.1:0", proverEngine, cfg.Alg)
	if err != nil {
		return err
	}
	r.srv = srv
	for _, md := range r.devices {
		if err := srv.Host(md.addr, md.prv); err != nil {
			return err
		}
	}

	col, err := fleet.NewUDPCollector(srv.Addr().String(), cfg.UDPPool)
	if err != nil {
		return err
	}
	if cfg.Obs != nil {
		r.udpStats = col.Stats
		for i, name := range udpCounterNames {
			r.udpGauges[i] = cfg.Obs.Gauge("erasmus_udp_client",
				"Collector-side UDP transport counters (datagrams, retransmissions, timeouts, drops).",
				obs.Label{Name: "counter", Value: name})
		}
	}
	mgrEngine := sim.NewEngine()
	r.engine = mgrEngine
	clock := func() uint64 { return verifierEpoch + uint64(time.Since(serveStart)) }
	if r.st, err = cfg.openState(); err != nil {
		return err
	}
	mgr, err := fleet.NewManagerWith(cfg.managerConfig(mgrEngine, col, clock, r.st, r))
	if err != nil {
		return err
	}
	r.mgr = mgr
	for _, md := range r.devices {
		md := md
		if md.plan.join == 0 {
			if err := mgr.Register(md.deviceConfig(cfg)); err != nil {
				return err
			}
		} else {
			mgrEngine.At(md.plan.join, func() {
				if err := mgr.Register(md.deviceConfig(cfg)); err != nil {
					panic(err)
				}
			})
		}
	}
	return nil
}

// finish folds the manager's end state into the result.
func (r *ManagedResult) finish(mgr *fleet.Manager, devices []*managedDevice) {
	r.Alerts = mgr.Alerts()
	r.AlertCounts = make(map[fleet.AlertKind]int)
	infectionAlerted := make(map[string]bool)
	for _, a := range r.Alerts {
		r.AlertCounts[a.Kind]++
		if a.Kind == fleet.AlertInfection {
			infectionAlerted[a.Device] = true
		}
	}
	r.Devices = len(devices)
	r.HealthyCount = mgr.HealthyCount()
	for _, md := range devices {
		if md.plan.join > 0 {
			r.LateJoiners++
		}
		seeded := md.plan.infect >= 0
		if seeded {
			r.InfectionsSeeded++
		}
		switch {
		case seeded && infectionAlerted[md.addr]:
			r.InfectionsDetected++
		case !seeded && infectionAlerted[md.addr]:
			r.FalseInfections++
		}
	}
}
