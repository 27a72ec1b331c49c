// Package erasmus is a simulation-backed implementation of ERASMUS:
// Efficient Remote Attestation via Self-Measurement for Unattended Settings
// (Carpent, Rattanavipanon, Tsudik — DATE 2018, arXiv:1707.09043).
//
// In ERASMUS a prover device measures its own memory on a schedule driven
// by a hardware timer and a Reliable Read-Only Clock, storing records
//
//	M_t = <t, H(mem_t), MAC_K(t, H(mem_t))>
//
// in a rolling buffer held in insecure storage; a verifier occasionally
// collects the k most recent records — with no cryptographic work on the
// prover — and validates the device's state *history*, catching mobile
// malware that on-demand attestation misses.
//
// This package is the facade the runnable scenarios in examples/ are
// written against, and it exports exactly the names they use:
//
//   - device models: NewMSP430 (SMART+ low-end MCU) and NewIMX6 (HYDRA on
//     seL4, medium-end) with calibrated cost models;
//   - the prover runtime (NewProver) with regular, staggered and
//     spot-verifiable irregular (§3.5) schedules, and the verifier
//     (NewVerifier);
//   - the fleet operations layer (NewFleetManagerWith) over the simulated
//     network or real UDP sockets, with durable state (OpenStateStore) and
//     observability (NewMetricsRegistry, NewCollectionTracer, NewEventLog);
//   - experiment harnesses: QoA scenarios (RunScenario, RunAvailability),
//     swarm attestation (NewSwarm) and population-scale runs
//     (RunPopulation, StartManagedPopulation).
//
// Everything else — the batch verifier, the attestation service, the HTTP
// serving surface, the lint suite — lives in the internal packages and is
// reached through the cmd/ binaries. EXPERIMENTS.md reproduces every table
// and figure of the paper.
package erasmus

import (
	"erasmus/internal/core"
	"erasmus/internal/costmodel"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/fleet"
	"erasmus/internal/hw/imx6"
	"erasmus/internal/hw/mcu"
	"erasmus/internal/netsim"
	"erasmus/internal/obs"
	"erasmus/internal/popsim"
	"erasmus/internal/qoa"
	"erasmus/internal/session"
	"erasmus/internal/sim"
	"erasmus/internal/store"
	"erasmus/internal/swarm"
	"erasmus/internal/udptransport"
)

// Virtual time. One tick is one nanosecond of simulated time.
type (
	// Ticks is a point in, or duration of, virtual time.
	Ticks = sim.Ticks
	// Engine is the discrete-event scheduler every simulation runs on.
	Engine = sim.Engine
)

// Re-exported time units.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// NewEngine creates a simulation engine at virtual time zero.
func NewEngine() *Engine { return sim.NewEngine() }

// MAC algorithms (Table 1 / Figures 6 and 8).
const (
	HMACSHA256   = mac.HMACSHA256
	KeyedBLAKE2s = mac.KeyedBLAKE2s
)

// MSP430 is the low-end platform: OpenMSP430 @ 8 MHz under SMART+.
const MSP430 = costmodel.MSP430

// DefaultEpoch is the RROC value at simulation time zero for both device
// models (the paper's Fig. 3 timestamp), in nanoseconds; verifier clocks
// built as DefaultEpoch + engine.Now() stay synchronized with devices.
const DefaultEpoch = mcu.DefaultEpoch

// Core attestation types.
type (
	// Prover is the ERASMUS runtime on one device.
	Prover = core.Prover
	// ProverConfig parameterizes a prover.
	ProverConfig = core.ProverConfig
	// VerifierConfig parameterizes a verifier.
	VerifierConfig = core.VerifierConfig
	// QoA captures the §3.1 Quality-of-Attestation parameters.
	QoA = core.QoA
	// MSP430Config configures a low-end SMART+ device.
	MSP430Config = mcu.Config
	// IMX6Config configures a HYDRA board.
	IMX6Config = imx6.Config
)

// NewMSP430 builds an MSP430-class prover device (SMART+).
func NewMSP430(cfg MSP430Config) (*mcu.Device, error) { return mcu.New(cfg) }

// NewIMX6 builds an i.MX6-class prover device (HYDRA on seL4).
func NewIMX6(cfg IMX6Config) (*imx6.Device, error) { return imx6.New(cfg) }

// NewProver builds the ERASMUS runtime over any device model.
func NewProver(dev core.Device, cfg ProverConfig) (*Prover, error) { return core.NewProver(dev, cfg) }

// NewVerifier builds a verifier.
func NewVerifier(cfg VerifierConfig) (*core.Verifier, error) { return core.NewVerifier(cfg) }

// NewRegularSchedule measures every tm (phase 0).
func NewRegularSchedule(tm Ticks) (core.Schedule, error) {
	return NewStaggeredSchedule(tm, 0)
}

// NewStaggeredSchedule measures every tm at the given phase offset, for
// swarm members that must not measure simultaneously (§6).
func NewStaggeredSchedule(tm, phase Ticks) (core.Schedule, error) {
	s, err := core.NewRegularWithPhase(tm, phase)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// NewStatelessIrregularSchedule builds the PRF variant of §3.5's irregular
// intervals, TM_next = map(PRF_K(t_i)) in [l, u): being stateless, it lets
// the verifier recompute and check every expected interval from any
// collected history without replaying a generator from device boot.
func NewStatelessIrregularSchedule(alg mac.Algorithm, key []byte, l, u Ticks) (*core.StatelessIrregular, error) {
	return core.NewStatelessIrregular(alg, key, l, u)
}

// RecordSize returns the encoded size of one measurement record, used to
// dimension device store regions: StoreSize = Slots × RecordSize(alg).
func RecordSize(alg mac.Algorithm) int { return core.RecordSize(alg) }

// MeasurementTime returns the calibrated duration of one self-measurement
// over memBytes of memory (Fig. 6 / Fig. 8).
func MeasurementTime(a costmodel.Arch, alg mac.Algorithm, memBytes int) Ticks {
	return costmodel.MeasurementTime(a, alg, memBytes)
}

// Experiment harnesses (Quality of Attestation, §3.4/§3.5/§5).
type (
	// Infection is one malware visit in a QoA scenario.
	Infection = qoa.Infection
	// ScenarioConfig parameterizes a measure→infect→collect→verify run.
	ScenarioConfig = qoa.ScenarioConfig
	// ScenarioResult aggregates a scenario run.
	ScenarioResult = qoa.ScenarioResult
	// AvailabilityConfig parameterizes the §5 time-sensitive experiment.
	AvailabilityConfig = qoa.AvailabilityConfig
)

// RunScenario executes a full QoA scenario (Fig. 1 style).
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) { return qoa.RunScenario(cfg) }

// RunAvailability executes the §5 time-sensitive application experiment.
func RunAvailability(cfg AvailabilityConfig) (qoa.AvailabilityResult, error) {
	return qoa.RunAvailability(cfg)
}

// SwarmConfig parameterizes a mobile swarm (§6).
type SwarmConfig = swarm.Config

// QoSAList is the per-device-list granularity of a collective report (the
// LISA information axis).
const QoSAList = swarm.QoSAList

// NewSwarm builds a mobile swarm of ERASMUS provers.
func NewSwarm(cfg SwarmConfig) (*swarm.Swarm, error) { return swarm.New(cfg) }

// Networking: the UDP-like simulated transport provers are attached to.
type (
	// Network is a lossy, latency-modeled datagram fabric.
	Network = netsim.Network
	// NetworkConfig parameterizes latency, jitter and loss.
	NetworkConfig = netsim.Config
)

// NewNetwork builds a simulated datagram network.
func NewNetwork(e *Engine, cfg NetworkConfig) (*Network, error) { return netsim.New(e, cfg) }

// AttachProver binds a prover to a network address.
func AttachProver(n *Network, e *Engine, addr string, p *Prover, alg mac.Algorithm) (*session.ProverEndpoint, error) {
	return session.AttachProver(n, e, addr, p, alg)
}

// Fleet operations: a verifier managing a population of provers over a
// pluggable collection transport, with verdicts computed off the
// scheduling goroutine by a batch-verified pipeline.
type (
	// FleetManager schedules collections and raises alerts for a device
	// population.
	FleetManager = fleet.Manager
	// FleetManagerConfig parameterizes a manager (transport, pipeline
	// sizing, unreachable threshold, durable Store).
	FleetManagerConfig = fleet.ManagerConfig
	// FleetDeviceConfig registers one prover with the manager.
	FleetDeviceConfig = fleet.DeviceConfig
	// FleetAlert is one fleet event (infection, tamper, unreachable).
	FleetAlert = fleet.Alert
)

// Fleet alert kinds.
const (
	AlertInfection = fleet.AlertInfection
	AlertTamper    = fleet.AlertTamper
)

// NewFleetManagerWith builds a fleet manager over an explicit transport.
func NewFleetManagerWith(cfg FleetManagerConfig) (*FleetManager, error) {
	return fleet.NewManagerWith(cfg)
}

// NewSimCollector builds the simulated-network collection transport.
func NewSimCollector(n *Network, e *Engine, addr string, clock func() uint64) (*fleet.SimCollector, error) {
	return fleet.NewSimCollector(n, e, addr, clock)
}

// NewUDPCollector dials a UDP fleet server with a socket pool of the
// given size (the collection concurrency bound).
func NewUDPCollector(server string, poolSize int) (*fleet.UDPCollector, error) {
	return fleet.NewUDPCollector(server, poolSize)
}

// ServeUDPFleet binds a real UDP socket serving any number of provers
// (added with Host) that live on the given engine; the server pumps the
// engine to track the wall clock.
func ServeUDPFleet(addr string, e *Engine, alg mac.Algorithm) (*udptransport.Server, error) {
	return udptransport.ServeFleet(addr, e, alg)
}

// PumpFleetRealTime advances a manager's engine against the wall clock
// until horizon, for fleets collected over a real-time transport.
func PumpFleetRealTime(e *Engine, horizon Ticks) { fleet.PumpRealTime(e, horizon, 0) }

// Durable verifier state: an append-only, segmented, checksummed
// write-ahead log of watermark updates, device status and alert events,
// compacted into snapshots (~150 B per device), with crash-consistent
// recovery. A StateStore plugs into FleetManagerConfig.Store, so a
// verifier process can die and a successor resumes delta collection with
// zero re-alerts and zero forced full re-verification rounds.
type (
	// StateStore is the WAL + snapshot store backing a durable verifier.
	StateStore = store.Store
	// StateStoreOptions tunes segment rotation and snapshot cadence.
	StateStoreOptions = store.Options
)

// OpenStateStore opens (creating if necessary) a durable state store
// rooted at dir and recovers its contents.
func OpenStateStore(dir string, opts StateStoreOptions) (*StateStore, error) {
	return store.Open(dir, opts)
}

// Population-scale simulation: a sharded fleet of 10⁵-class provers with
// churn, infection waves and batched parallel verification.
type (
	// PopulationConfig parameterizes a popsim run.
	PopulationConfig = popsim.Config
	// ChurnConfig models devices joining and retiring mid-run.
	ChurnConfig = popsim.ChurnConfig
	// WaveConfig models an infection wave sweeping the population.
	WaveConfig = popsim.WaveConfig
	// ManagedPopulationConfig parameterizes a fleet-managed run: the
	// seeded popsim scenario driven end-to-end through a FleetManager
	// over the "sim" or "udp" transport.
	ManagedPopulationConfig = popsim.ManagedConfig
)

// RunPopulation executes a population-scale scenario across engine shards;
// the same seed yields identical aggregate statistics for any shard count.
func RunPopulation(cfg PopulationConfig) (*popsim.Result, error) { return popsim.Run(cfg) }

// StartManagedPopulation builds and starts a fleet-managed scenario
// without driving it to the horizon: the caller advances it with Pump,
// reading manager state and metrics between steps (the erasmus-fleet
// -serve pattern), and ends it with Finish.
func StartManagedPopulation(cfg ManagedPopulationConfig) (*popsim.ManagedRun, error) {
	return popsim.StartManaged(cfg)
}

// Observability: a zero-dependency metrics registry with Prometheus text
// exposition, a bounded per-collection tracer and a structured event log,
// wired in through FleetManagerConfig / ManagedPopulationConfig. All of it
// is opt-in — a nil registry/tracer/log costs one nil-check per touch
// point and never changes verdicts or alerts (enforced by the
// observability-equivalence tests).

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *obs.Registry { return obs.NewRegistry() }

// NewCollectionTracer builds a tracer retaining the last capacity
// collection spans — the /tracez post-mortem feed.
func NewCollectionTracer(capacity int) *obs.Tracer { return obs.NewTracer(capacity) }

// NewEventLog builds an event log retaining the last capacity events.
func NewEventLog(capacity int) *obs.EventLog { return obs.NewEventLog(capacity) }

// ServeMetrics exposes the registry at /metrics on a background HTTP
// server bound to addr (use "127.0.0.1:0" for an ephemeral port). It
// returns the bound address and a shutdown function. For the full
// verifier surface run erasmus-fleet -serve.
func ServeMetrics(addr string, r *obs.Registry) (string, func() error, error) {
	return obs.ServeMetrics(addr, r)
}
