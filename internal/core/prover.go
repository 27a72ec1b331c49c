package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"erasmus/internal/costmodel"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/hw/cpu"
	"erasmus/internal/sim"
)

// Device is the security-architecture surface the prover runtime needs.
// Both hardware models (internal/hw/mcu for SMART+, internal/hw/imx6 for
// HYDRA) satisfy it.
type Device interface {
	// Arch selects the calibrated cost model.
	Arch() costmodel.Arch
	// Engine is the simulation the device lives in.
	Engine() *sim.Engine
	// CPU is the single-core occupancy tracker.
	CPU() *cpu.Tracker
	// Violations is the device's access-violation log.
	Violations() *cpu.ViolationLog
	// Memory is the live attested memory image.
	Memory() []byte
	// Store is the insecure region holding the measurement buffer.
	Store() []byte
	// RROC reads the reliable read-only clock (ns since epoch).
	RROC() uint64
	// Attest runs fn atomically inside the protected attestation code
	// with access to the device secret K.
	Attest(fn func(key []byte)) error
	// SetOneShotTimer arms a hardware timer.
	SetOneShotTimer(delay sim.Ticks, fn func()) *sim.Event
}

// ProverConfig parameterizes a prover runtime.
type ProverConfig struct {
	// Alg is the MAC algorithm for measurements.
	Alg mac.Algorithm
	// Schedule drives self-measurement timing. Required.
	Schedule Schedule
	// Slots is n, the rolling buffer capacity. Required, positive; the
	// device store must hold Slots × RecordSize(Alg) bytes.
	Slots int
	// LenientWindow is w ≥ 1 from §5: an aborted measurement may be
	// retried until w×TM after its scheduled time. Values < 1 (including
	// zero) mean strict scheduling: aborted measurements are lost.
	LenientWindow float64
	// ODFreshnessWindow bounds |treq − RROC| for accepted on-demand
	// requests (default 10 s). Stale or replayed requests are rejected
	// before any expensive computation (the SMART+ anti-DoS check).
	ODFreshnessWindow sim.Ticks
	// OnEvent, if set, receives the prover's runtime event stream
	// (see EventKind). Nil disables tracing at zero cost.
	OnEvent func(Event)
}

// ProverStats counts runtime activity.
type ProverStats struct {
	Measurements         int // committed self-measurements
	Aborted              int // measurements aborted mid-flight
	Missed               int // scheduled measurements never completed
	Collections          int // ERASMUS collection requests served
	DeltaCollections     int // incremental (since-watermark) collections served
	AggregateCollections int // aggregate-anchor collections served (one MAC each)
	ODRequests           int // on-demand/+OD requests received
	ODRejected           int // requests failing freshness/authentication
	ODMeasured           int // real-time measurements computed for OD requests
	RetriesQueued        int // lenient-window retries scheduled
}

// Prover is the ERASMUS runtime on one device: a timer-driven
// self-measurement loop plus collection-phase handlers.
type Prover struct {
	dev Device
	cfg ProverConfig
	buf *Buffer

	seq      int // sequence-addressed slot cursor (irregular schedules)
	lastSlot int // slot of the most recent committed record, -1 if none
	lastT    uint64

	// chain is the streaming digest over every committed record's
	// (t, hash) content, oldest first — the hash chain the aggregate
	// collection tier authenticates with a single MAC. It lives in the
	// prover runtime (trusted measurement path), not the insecure store:
	// resident malware can rewrite buffered records but cannot touch the
	// chain, which is exactly the discrepancy the verifier's walk
	// detects. Rolling-buffer overwrites do not rewind it: the chain
	// commits to history, the buffer merely caches the recent window.
	chain chainDigest
	// macCtx is the keyed MAC behind every measurement and every
	// aggregate answer: one context per prover, keyed once and only ever
	// used inside the protected context — the counterpart of
	// Verifier.macPool — instead of keying a fresh MAC per message.
	macCtx *mac.Context

	pendingEv *sim.Event
	running   bool

	lastTreq uint64 // anti-replay floor for on-demand requests

	stats ProverStats
}

// NewProver builds a prover over a device. The measurement buffer is laid
// out in the device's insecure store region.
func NewProver(dev Device, cfg ProverConfig) (*Prover, error) {
	if dev == nil {
		return nil, errors.New("core: nil device")
	}
	if cfg.Schedule == nil {
		return nil, errors.New("core: ProverConfig.Schedule is required")
	}
	if !cfg.Alg.Valid() {
		return nil, fmt.Errorf("core: invalid MAC algorithm %d", int(cfg.Alg))
	}
	// Stateless schedules address slots as ⌊t/TM⌋ mod n; a non-positive
	// nominal TM would make that arithmetic meaningless, so reject it here
	// at configuration time instead of panicking in the measurement loop.
	if cfg.Schedule.Stateless() && cfg.Schedule.NominalTM() <= 0 {
		return nil, fmt.Errorf("core: stateless schedule has non-positive nominal TM %v",
			cfg.Schedule.NominalTM())
	}
	if cfg.ODFreshnessWindow <= 0 {
		cfg.ODFreshnessWindow = 10 * sim.Second
	}
	buf, err := NewBuffer(cfg.Alg, cfg.Slots, dev.Store())
	if err != nil {
		return nil, err
	}
	p := &Prover{dev: dev, cfg: cfg, buf: buf, lastSlot: -1, chain: newChain()}
	if err := dev.Attest(func(key []byte) { p.macCtx = mac.NewContext(cfg.Alg, key) }); err != nil {
		return nil, fmt.Errorf("core: keying the prover's MAC: %w", err)
	}
	return p, nil
}

// Buffer exposes the rolling store (tamper experiments reach records
// through it, as resident malware would).
func (p *Prover) Buffer() *Buffer { return p.buf }

// Stats returns a snapshot of runtime counters.
func (p *Prover) Stats() ProverStats { return p.stats }

// LastMeasurementTime returns the RROC timestamp of the latest committed
// record, or 0 if none.
func (p *Prover) LastMeasurementTime() uint64 { return p.lastT }

// Start arms the measurement schedule. Measurements fire autonomously
// until Stop.
func (p *Prover) Start() {
	if p.running {
		return
	}
	p.running = true
	p.scheduleNext()
}

// Stop disarms the schedule. In-flight measurements still complete.
func (p *Prover) Stop() {
	p.running = false
	if p.pendingEv != nil {
		p.pendingEv.Cancel()
		p.pendingEv = nil
	}
}

func (p *Prover) scheduleNext() {
	if !p.running {
		return
	}
	delay := p.cfg.Schedule.NextInterval(p.dev.RROC())
	p.pendingEv = p.dev.SetOneShotTimer(delay, func() {
		scheduledAt := p.dev.RROC()
		p.beginMeasurement(scheduledAt, p.retryDeadline(scheduledAt))
		p.scheduleNext()
	})
}

// retryDeadline computes the lenient-window end (§5): w × TM after the
// scheduled time, or zero for strict scheduling.
func (p *Prover) retryDeadline(scheduledAt uint64) uint64 {
	if p.cfg.LenientWindow <= 1 {
		return 0
	}
	win := float64(p.cfg.Schedule.NominalTM()) * p.cfg.LenientWindow
	return scheduledAt + uint64(win)
}

// MeasureNow triggers an unscheduled self-measurement immediately (used by
// tests and by setups that warm the buffer before an experiment).
func (p *Prover) MeasureNow() {
	p.beginMeasurement(p.dev.RROC(), 0)
}

// beginMeasurement queues the measurement behind any current CPU work,
// computes the record inside the protected context at its start time, and
// commits it at its end time — unless aborted, in which case the lenient
// policy may schedule a retry before deadline.
func (p *Prover) beginMeasurement(scheduledAt, retryBy uint64) {
	e := p.dev.Engine()
	dur := costmodel.MeasurementTime(p.dev.Arch(), p.cfg.Alg, len(p.dev.Memory()))
	occ := p.dev.CPU().Occupy(cpu.KindMeasurement, dur)

	var rec Record
	var attErr error
	e.At(occ.Start, func() {
		if occ.Aborted {
			return
		}
		attErr = p.dev.Attest(func([]byte) {
			rec = computeRecord(p.macCtx, p.cfg.Alg, p.dev.RROC(), p.dev.Memory())
		})
	})
	e.At(occ.End, func() {
		if occ.Aborted {
			p.stats.Aborted++
			p.emit(EventMeasurementAbort, 0, "aborted mid-measurement")
			p.maybeRetry(scheduledAt, retryBy, dur)
			return
		}
		if attErr != nil {
			p.stats.Missed++
			p.emit(EventWindowMissed, 0, attErr.Error())
			return
		}
		p.commit(rec)
	})
}

// maybeRetry implements the §5 lenient policy: an aborted measurement is
// rescheduled to the end of the current w×TM window if it can still finish
// by then; otherwise the window is missed.
func (p *Prover) maybeRetry(scheduledAt, retryBy uint64, dur sim.Ticks) {
	now := p.dev.RROC()
	if retryBy == 0 || now+uint64(dur) > retryBy {
		p.stats.Missed++
		p.emit(EventWindowMissed, 0, "no room left in lenient window")
		return
	}
	p.stats.RetriesQueued++
	p.emit(EventRetryScheduled, 0, "retry at end of lenient window")
	startAt := retryBy - uint64(dur)
	delay := sim.Ticks(0)
	if startAt > now {
		delay = sim.Ticks(startAt - now)
	}
	p.dev.SetOneShotTimer(delay, func() {
		p.beginMeasurement(scheduledAt, retryBy)
	})
}

// AbortMeasurement aborts an in-flight self-measurement (a time-critical
// task needs the CPU, §5). It reports whether a measurement was running.
func (p *Prover) AbortMeasurement() bool {
	if p.dev.CPU().ActiveKind() != cpu.KindMeasurement {
		return false
	}
	return p.dev.CPU().Abort()
}

// commit stores the record: time-addressed slot for stateless regular
// schedules, sequence-addressed otherwise.
func (p *Prover) commit(rec Record) {
	var slot int
	if p.cfg.Schedule.Stateless() {
		slot = p.buf.SlotForTime(rec.T, p.cfg.Schedule.NominalTM())
	} else {
		slot = p.seq % p.buf.Slots()
		p.seq++
	}
	p.buf.Put(slot, rec)
	chainAbsorb(p.chain, rec.T, rec.Hash)
	p.lastSlot = slot
	p.lastT = rec.T
	p.stats.Measurements++
	p.emit(EventMeasurement, rec.T, fmt.Sprintf("slot %d", slot))
}

// CollectTiming itemizes the prover-side cost of serving one collection,
// reproducing Table 2's rows.
type CollectTiming struct {
	VerifyRequest        sim.Ticks // on-demand variants only
	ComputeMeasurement   sim.Ticks // on-demand variants only
	ReadBuffer           sim.Ticks
	AuthenticateResponse sim.Ticks // aggregate collections only: the one MAC over the chain head
	ConstructPacket      sim.Ticks
	SendPacket           sim.Ticks
}

// Total sums all phases.
func (t CollectTiming) Total() sim.Ticks {
	return t.VerifyRequest + t.ComputeMeasurement + t.ReadBuffer + t.AuthenticateResponse + t.ConstructPacket + t.SendPacket
}

// HandleCollect serves a plain ERASMUS collection (Fig. 2): read the k
// latest records from the buffer and return them, newest first. No
// cryptographic work, no request authentication — tampering with the
// response is self-incriminating, and there is no computational-DoS
// surface to protect.
func (p *Prover) HandleCollect(k int) ([]Record, CollectTiming) {
	p.stats.Collections++
	timing := CollectTiming{
		ReadBuffer:      costmodel.BufferReadTime(p.dev.Arch(), k),
		ConstructPacket: costmodel.ConstructPacketTime(p.dev.Arch()),
		SendPacket:      costmodel.SendPacketTime(p.dev.Arch()),
	}
	p.dev.CPU().Occupy(cpu.KindCollection, timing.Total())
	if p.lastSlot < 0 {
		p.emit(EventCollection, 0, "empty history")
		return nil, timing
	}
	recs := p.buf.Latest(p.lastSlot, k)
	if p.cfg.OnEvent != nil {
		p.emit(EventCollection, p.lastT, fmt.Sprintf("%d records", len(recs)))
	}
	return recs, timing
}

// HandleCollectDelta serves an incremental collection: the records
// measured at or after since (the verifier's watermark), newest first,
// capped at k (k ≤ 0 means everything since, clamped to the buffer
// size). Like HandleCollect it involves no cryptography and no request
// authentication; unlike it, the buffer read stops at the watermark, so
// the prover-side cost — like the response size and the verifier's MAC
// work — is proportional to the *new* history only.
func (p *Prover) HandleCollectDelta(since uint64, k int) ([]Record, CollectTiming) {
	p.stats.Collections++
	p.stats.DeltaCollections++
	if p.lastSlot < 0 {
		timing := CollectTiming{
			ConstructPacket: costmodel.ConstructPacketTime(p.dev.Arch()),
			SendPacket:      costmodel.SendPacketTime(p.dev.Arch()),
		}
		p.dev.CPU().Occupy(cpu.KindCollection, timing.Total())
		p.emit(EventCollection, 0, "empty history (delta)")
		return nil, timing
	}
	recs, visited := p.buf.LatestSince(p.lastSlot, k, since)
	timing := CollectTiming{
		ReadBuffer:      costmodel.BufferReadTime(p.dev.Arch(), visited),
		ConstructPacket: costmodel.ConstructPacketTime(p.dev.Arch()),
		SendPacket:      costmodel.SendPacketTime(p.dev.Arch()),
	}
	p.dev.CPU().Occupy(cpu.KindCollection, timing.Total())
	if p.cfg.OnEvent != nil {
		p.emit(EventCollection, p.lastT, fmt.Sprintf("%d records since t=%d", len(recs), since))
	}
	return recs, timing
}

// reqMACInput is the authenticated portion of an on-demand request.
func reqMACInput(treq uint64, k int) []byte {
	var b [12]byte
	binary.BigEndian.PutUint64(b[:8], treq)
	binary.BigEndian.PutUint32(b[8:], uint32(k))
	return b[:]
}

// NewODRequestMAC computes the verifier-side authentication token for an
// on-demand request <treq, k, MAC_K(treq, k)>.
func NewODRequestMAC(alg mac.Algorithm, key []byte, treq uint64, k int) []byte {
	return mac.Sum(alg, key, reqMACInput(treq, k))
}

// Errors returned by the on-demand request path.
var (
	ErrStaleRequest = errors.New("core: request timestamp outside freshness window")
	ErrReplay       = errors.New("core: request timestamp not newer than last accepted")
	ErrBadRequest   = errors.New("core: request authentication failed")
)

// authenticateRequest performs the SMART+ checks: freshness against the
// RROC, anti-replay against the last accepted treq, and MAC verification
// inside the protected context. It charges the (small) authentication cost
// and returns the verdict.
func (p *Prover) authenticateRequest(treq uint64, k int, reqMAC []byte) (CollectTiming, error) {
	timing := CollectTiming{VerifyRequest: costmodel.AuthTime(p.dev.Arch())}
	p.dev.CPU().Occupy(cpu.KindAuth, timing.VerifyRequest)

	now := p.dev.RROC()
	w := uint64(p.cfg.ODFreshnessWindow)
	if treq+w < now || treq > now+w {
		return timing, ErrStaleRequest
	}
	if treq <= p.lastTreq {
		return timing, ErrReplay
	}
	ok := false
	attErr := p.dev.Attest(func(key []byte) {
		ok = mac.Verify(p.cfg.Alg, key, reqMACInput(treq, k), reqMAC)
	})
	if attErr != nil {
		return timing, attErr
	}
	if !ok {
		return timing, ErrBadRequest
	}
	p.lastTreq = treq
	return timing, nil
}

// measureOnDemand computes a real-time measurement synchronously in
// virtual time, charging the full measurement cost, and returns it.
func (p *Prover) measureOnDemand() (Record, sim.Ticks, error) {
	dur := costmodel.MeasurementTime(p.dev.Arch(), p.cfg.Alg, len(p.dev.Memory()))
	p.dev.CPU().Occupy(cpu.KindMeasurement, dur)
	var rec Record
	err := p.dev.Attest(func([]byte) {
		rec = computeRecord(p.macCtx, p.cfg.Alg, p.dev.RROC(), p.dev.Memory())
	})
	if err != nil {
		return Record{}, dur, err
	}
	p.stats.ODMeasured++
	return rec, dur, nil
}

// HandleCollectOD serves an ERASMUS+OD request (Fig. 4): authenticate,
// compute a fresh measurement M0, and return it together with the k latest
// stored records. The fresh record is NOT written to the buffer — it
// answers this request's freshness requirement only.
func (p *Prover) HandleCollectOD(treq uint64, k int, reqMAC []byte) (m0 Record, history []Record, timing CollectTiming, err error) {
	p.stats.ODRequests++
	timing, err = p.authenticateRequest(treq, k, reqMAC)
	if err != nil {
		p.stats.ODRejected++
		p.emit(EventODRejected, treq, err.Error())
		return Record{}, nil, timing, err
	}
	var dur sim.Ticks
	m0, dur, err = p.measureOnDemand()
	timing.ComputeMeasurement = dur
	if err != nil {
		return Record{}, nil, timing, err
	}
	timing.ReadBuffer = costmodel.BufferReadTime(p.dev.Arch(), k)
	timing.ConstructPacket = costmodel.ConstructPacketTime(p.dev.Arch())
	timing.SendPacket = costmodel.SendPacketTime(p.dev.Arch())
	p.dev.CPU().Occupy(cpu.KindCollection, timing.ReadBuffer+timing.ConstructPacket+timing.SendPacket)
	if p.lastSlot >= 0 {
		history = p.buf.Latest(p.lastSlot, k)
	}
	p.emit(EventODServed, m0.T, fmt.Sprintf("M0 + %d records", len(history)))
	return m0, history, timing, nil
}

// HandleOnDemand serves a pure on-demand attestation request (the SMART+
// baseline): authenticate, measure in real time, return the single fresh
// record. This is the design ERASMUS is compared against throughout the
// evaluation. The request MAC binds nonce zero; verifiers that issue many
// instances should use HandleOnDemandNonce with a fresh nonce instead.
func (p *Prover) HandleOnDemand(treq uint64, reqMAC []byte) (Record, CollectTiming, error) {
	return p.HandleOnDemandNonce(treq, 0, reqMAC)
}

// HandleOnDemandNonce serves a pure on-demand request whose MAC binds a
// verifier-chosen nonce in the request's k field (unused by the pure
// on-demand protocol): <treq, nonce, MAC_K(treq, nonce)>. The nonce gives
// each instance's requests a distinct MAC even when treq values repeat
// across verifiers, and the prover's monotonic treq floor (ErrReplay)
// rejects any captured request replayed verbatim.
func (p *Prover) HandleOnDemandNonce(treq uint64, nonce uint32, reqMAC []byte) (Record, CollectTiming, error) {
	p.stats.ODRequests++
	timing, err := p.authenticateRequest(treq, int(nonce), reqMAC)
	if err != nil {
		p.stats.ODRejected++
		p.emit(EventODRejected, treq, err.Error())
		return Record{}, timing, err
	}
	rec, dur, err := p.measureOnDemand()
	timing.ComputeMeasurement = dur
	if err != nil {
		return Record{}, timing, err
	}
	timing.ConstructPacket = costmodel.ConstructPacketTime(p.dev.Arch())
	timing.SendPacket = costmodel.SendPacketTime(p.dev.Arch())
	p.dev.CPU().Occupy(cpu.KindCollection, timing.ConstructPacket+timing.SendPacket)
	p.emit(EventODServed, rec.T, "single on-demand record")
	return rec, timing, nil
}
