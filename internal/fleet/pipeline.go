package fleet

import (
	"sync"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/session"
	"erasmus/internal/sim"
)

// pipeJob is one resolved collection travelling from the transport
// callback to per-device state: either a collected history awaiting a
// verdict or a collection failure.
type pipeJob struct {
	dev       *device
	res       session.CollectResult
	err       error
	now       uint64 // verifier clock at launch
	expectedK int
	at        sim.Ticks // launch time, stamped onto alerts
	delta     bool      // incremental verification against wm
	wm        core.Watermark
	agg       bool   // aggregate tier: wm is the challenge anchor
	aggNonce  uint64 // challenge nonce the aggregate MAC must bind
	// unsettledFallback marks a round that fell back to a stateless full
	// collection because a previous verdict was unapplied — the adaptive
	// scheduler's signal that the device is being collected faster than
	// its verdicts settle.
	unsettledFallback bool
	rep               core.Report

	// Observability-only fields, zero when the manager is uninstrumented:
	// submitWall is the wall clock at submission (verdict-lag measurement,
	// span bracket), verifyNanos this job's share of its verification
	// batch's wall time.
	submitWall  int64
	verifyNanos int64
}

// pipeline decouples verification from collection: transport callbacks
// submit into a bounded queue, a dispatcher goroutine drains it in batches
// through a core.BatchVerifier worker pool, and verdicts are re-joined to
// the owning device via VerifyJob.Tag — all in submission order, so the
// alert stream is identical to inline verification while the scheduling
// goroutine never blocks on MAC recomputation.
type pipeline struct {
	m          *Manager
	bv         *core.BatchVerifier
	jobs       chan pipeJob
	batchLimit int
	inline     bool

	mu       sync.Mutex
	cond     *sync.Cond
	inflight int // collections launched, verdict not yet applied
	queued   int // jobs submitted to the queue, not yet applied

	// closeMu fences channel sends against close(): submitters hold the
	// read side across the send, so the channel can never be closed
	// between the closed-check and the send. The dispatcher takes neither
	// side, so a full queue drains normally.
	closeMu sync.RWMutex
	closed  bool
}

func newPipeline(m *Manager, cfg ManagerConfig) *pipeline {
	p := &pipeline{
		m:          m,
		bv:         core.NewBatchVerifier(cfg.VerifyWorkers),
		batchLimit: cfg.BatchLimit,
		inline:     cfg.Synchronous,
	}
	p.bv.Metrics = m.vm
	p.cond = sync.NewCond(&p.mu)
	if !p.inline {
		p.jobs = make(chan pipeJob, cfg.QueueDepth)
		go p.dispatch()
	}
	return p
}

// launched accounts one collection leaving the scheduler.
func (p *pipeline) launched() {
	p.mu.Lock()
	p.inflight++
	p.m.metrics.setInflight(p.inflight)
	p.mu.Unlock()
}

// depths snapshots the queue and in-flight counters (the /healthz signal).
func (p *pipeline) depths() (queued, inflight int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued, p.inflight
}

// submit hands one resolved collection to verification. Safe for
// concurrent use; blocks when the queue is full (backpressure on the
// transport callbacks, never on the scheduler).
//
//erasmus:wallpaced submitWall stamps real queue-entry time for verdict-lag tracing; verdict application order never reads it
func (p *pipeline) submit(j pipeJob) {
	if p.m.metrics != nil || p.m.tracer != nil {
		j.submitWall = time.Now().UnixNano()
	}
	if p.inline {
		p.process([]pipeJob{j}, nil)
		p.settle(1, 0)
		return
	}
	p.closeMu.RLock()
	if p.closed {
		p.closeMu.RUnlock()
		p.settle(1, 0) // the launch resolves; the job is dropped
		return
	}
	p.mu.Lock()
	p.queued++
	p.m.metrics.setQueue(p.queued)
	p.mu.Unlock()
	//erasmus:allow(lockflow) closeMu is read-held across the send precisely to exclude Close's write lock: prevents send-on-closed-channel at Stop
	p.jobs <- j
	p.closeMu.RUnlock()
}

// dispatch drains the queue in batches. It owns the batch and the verify
// jobs built from it and reuses both across batches, grown to the largest
// batch seen; they are cleared after every batch so an idle dispatcher
// pins no collected history.
func (p *pipeline) dispatch() {
	var batch []pipeJob
	var vjobs []core.VerifyJob
	for j := range p.jobs {
		batch = append(batch, j)
	gather:
		for len(batch) < p.batchLimit {
			select {
			case j2, ok := <-p.jobs:
				if !ok {
					break gather
				}
				batch = append(batch, j2)
			default:
				break gather
			}
		}
		n := len(batch)
		if cap(vjobs) < n {
			vjobs = make([]core.VerifyJob, 0, cap(batch))
		}
		p.process(batch, vjobs)
		p.settle(n, n)
		clear(batch)
		clear(vjobs[:n])
		batch = batch[:0]
	}
}

// process verifies a batch's successful collections in parallel and
// applies every outcome in submission order. vjobs is scratch for the
// verify jobs: the dispatcher lends room for one per batch entry.
//
//erasmus:wallpaced per-span verify wall share feeds the tracer; verdicts and their order are clock-free
func (p *pipeline) process(batch []pipeJob, vjobs []core.VerifyJob) {
	vjobs = vjobs[:0]
	for i := range batch {
		if batch[i].err == nil {
			vj := core.VerifyJob{
				Verifier:  batch[i].dev.verifier,
				Records:   batch[i].res.Records,
				Now:       batch[i].now,
				ExpectedK: batch[i].expectedK,
				Delta:     batch[i].delta,
				Watermark: batch[i].wm,
				Device:    batch[i].dev.cfg.Addr,
				Tag:       &batch[i],
			}
			if batch[i].agg {
				vj.Aggregate = true
				vj.AggEvidence = core.AggregateEvidence{
					Since:      batch[i].wm.T,
					Nonce:      batch[i].aggNonce,
					AnchorHash: batch[i].wm.Hash,
					State:      batch[i].res.AggState,
					MAC:        batch[i].res.AggMAC,
				}
			}
			vjobs = append(vjobs, vj)
		}
	}
	if len(vjobs) > 0 {
		timed := p.m.metrics != nil || p.m.tracer != nil
		var start time.Time
		if timed {
			start = time.Now()
		}
		reports := p.bv.Verify(vjobs)
		var share int64
		if timed {
			share = time.Since(start).Nanoseconds() / int64(len(vjobs))
		}
		for i := range vjobs {
			pj := vjobs[i].Tag.(*pipeJob)
			pj.rep = reports[i]
			pj.verifyNanos = share
		}
	}
	for i := range batch {
		p.m.applyResult(&batch[i])
	}
}

// settle retires applied jobs from the counters.
func (p *pipeline) settle(inflight, queued int) {
	p.mu.Lock()
	p.inflight -= inflight
	p.queued -= queued
	p.m.metrics.setInflight(p.inflight)
	p.m.metrics.setQueue(p.queued)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// waitQueued blocks until the queue is drained and applied.
func (p *pipeline) waitQueued() {
	p.mu.Lock()
	for p.queued > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// waitInflight blocks until every launched collection has been applied.
func (p *pipeline) waitInflight() {
	p.mu.Lock()
	for p.inflight > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// close shuts the dispatcher down; later submissions are dropped.
func (p *pipeline) close() {
	if p.inline {
		return
	}
	p.closeMu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.closeMu.Unlock()
}
