package main

import (
	"fmt"
	"os"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/fleet"
	"erasmus/internal/obs"
	"erasmus/internal/sim"
	"erasmus/internal/store"
)

// The probes time one layer at a time through its public functions, on
// one goroutine, fed with the workload's own inputs. They explain the
// end-to-end numbers; none of them is itself an end-to-end metric.

// probeSimEvent times the engine alone: one no-op ticker per device at
// the collection period, for the workload's number of rounds. Returns
// nanoseconds per fired event.
func probeSimEvent(devices int, tc sim.Ticks, rounds int) float64 {
	e := sim.NewEngine()
	for i := 0; i < devices; i++ {
		e.Ticker(tc+tc*sim.Ticks(i)/sim.Ticks(devices), tc, func() {})
	}
	start := time.Now()
	e.RunUntil(sim.Ticks(rounds+1)*tc - 1)
	return float64(time.Since(start)) / float64(e.Fired())
}

// verifierFor builds a device's verifier with the bounds fleet.Register
// derives from its QoA.
func verifierFor(d *devEvidence, tm sim.Ticks) (*core.Verifier, error) {
	return core.NewVerifier(core.VerifierConfig{
		Alg: benchAlg, Key: d.key, GoldenHashes: [][]byte{d.golden},
		MinGap: tm - tm/10, MaxGap: tm + tm/2, ClockSkew: tm / 10,
	})
}

// verifyProbe is the outcome of re-verifying a pass's first requests.
type verifyProbe struct {
	usPerCollection float64
	nsPerRecord     float64
	jobs            []core.VerifyJob // the same verifications as batch jobs
	watermarks      []core.Watermark // per device, after the last request
}

// probeVerify feeds the requests a pass issued through the verifier
// directly — VerifyHistory, VerifyDelta or VerifyDeltaAggregate, as the
// pass's tier chose — advancing each device's watermark with
// core.NextWatermark as the manager does, and times only those calls.
func (w *replayWorkload) probeVerify(requests []request) (verifyProbe, error) {
	var p verifyProbe
	spec := w.spec
	col := &replayCollector{ev: w.ev}
	verifiers := make([]*core.Verifier, spec.Devices)
	p.watermarks = make([]core.Watermark, spec.Devices)
	var spent time.Duration
	collections, records := 0, 0
	for _, req := range requests {
		d := w.ev.devices[req.dev]
		if d.silentAt(req.now) {
			continue
		}
		if verifiers[req.dev] == nil {
			v, err := verifierFor(d, spec.TM)
			if err != nil {
				return p, err
			}
			verifiers[req.dev] = v
		}
		wire, err := col.respond(req)
		if err != nil {
			return p, err
		}
		res, err := decodeResponse(req.verb, wire)
		if err != nil {
			return p, err
		}
		v, wm := verifiers[req.dev], p.watermarks[req.dev]
		job := core.VerifyJob{Verifier: v, Records: res.Records, Now: req.now, ExpectedK: spec.K, Watermark: wm}
		var rep core.Report
		start := time.Now()
		switch req.verb {
		case verbAggregate:
			job.Aggregate = true
			job.AggEvidence = core.AggregateEvidence{
				Since: req.since, Nonce: req.nonce, AnchorHash: req.anchorHash,
				State: res.AggState, MAC: res.AggMAC,
			}
			rep, _ = v.VerifyDeltaAggregate(res.Records, req.now, spec.K, wm, job.AggEvidence)
		case verbDelta:
			job.Delta = true
			rep, _ = v.VerifyDelta(res.Records, req.now, spec.K, wm)
		default:
			rep = v.VerifyHistory(res.Records, req.now, spec.K)
		}
		spent += time.Since(start)
		if req.verb != verbFull {
			p.watermarks[req.dev] = core.NextWatermark(wm, rep)
		}
		collections++
		records += len(res.Records)
		// Only what the batch probe needs is kept: every retained history is
		// heap the collector must mark while the rest of the probe runs.
		if len(p.jobs) < batchProbeJobs {
			p.jobs = append(p.jobs, job)
		}
	}
	if collections == 0 || records == 0 {
		return p, fmt.Errorf("verify probe saw %d collections, %d records", collections, records)
	}
	p.usPerCollection = float64(spent) / 1e3 / float64(collections)
	p.nsPerRecord = float64(spent) / float64(records)
	return p, nil
}

// batchProbeJobs is how many verifications the batch probe replays: 32
// batches of 64.
const batchProbeJobs = 32 * 64

// probeBatchSpeedup runs the same fixed 64-job batches through a
// one-worker and a two-worker BatchVerifier and returns how many times
// faster two workers were.
func probeBatchSpeedup(jobs []core.VerifyJob) float64 {
	const batch, rounds = 64, 5
	timeWith := func(workers int) time.Duration {
		bv := core.NewBatchVerifier(workers)
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for lo := 0; lo+batch <= len(jobs); lo += batch {
				bv.Verify(jobs[lo : lo+batch])
			}
		}
		return time.Since(start)
	}
	if len(jobs) < batch {
		return 0
	}
	timeWith(2) // warm the pools both configurations share
	one, two := timeWith(1), timeWith(2)
	return float64(one) / float64(two)
}

// probeServiceSet times one watermark update and lookup in the
// attestation service, with no sink behind it.
func probeServiceSet(devices []*devEvidence, wms []core.Watermark) float64 {
	svc := core.NewAttestationService(core.ServiceConfig{})
	const rounds = 20
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i, d := range devices {
			svc.Set(d.addr, wms[i])
			svc.Watermark(d.addr)
		}
	}
	return float64(time.Since(start)) / float64(rounds*len(devices))
}

// probeMACSum times the MAC of one record: HMAC-SHA256 over the 40-byte
// (t, H(mem)) input.
func probeMACSum(key []byte) float64 {
	const n = 100_000
	msg := make([]byte, 40)
	start := time.Now()
	for i := 0; i < n; i++ {
		msg[0] = byte(i)
		mac.Sum(benchAlg, key, msg)
	}
	return float64(time.Since(start)) / n
}

// probeStoreAppend times what journaling one verdict appends: a
// watermark record and a status record of the workload's sizes.
func probeStoreAppend(dir string, devices []*devEvidence, wms []core.Watermark) (us float64, err error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, err
	}
	const rounds = 10
	start := time.Now()
	for r := 0; r < rounds && err == nil; r++ {
		for i, d := range devices {
			if err = st.SetWatermark(d.addr, wms[i]); err != nil {
				break
			}
			err = st.PutStatus(store.DeviceState{
				Addr: d.addr, Healthy: true, HasAnchor: true,
				ScheduleAnchor: int64(i), LastContact: int64(r), Collections: r,
			})
			if err != nil {
				break
			}
		}
	}
	spent := time.Since(start)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return float64(spent) / 1e3 / float64(rounds*len(devices)), err
}

// probePublish times Broker.Publish with one subscriber draining.
func probePublish() float64 {
	const n = 200_000
	b := obs.NewBroker[fleet.StreamedAlert]()
	sub := b.Subscribe(4096)
	done := make(chan struct{})
	go func() {
		for range sub.Ch() {
		}
		close(done)
	}()
	a := fleet.StreamedAlert{Alert: fleet.Alert{Device: deviceAddr(1), Kind: fleet.AlertInfection, Detail: "probe"}}
	start := time.Now()
	for i := 0; i < n; i++ {
		a.Seq = uint64(i + 1)
		b.Publish(a)
	}
	spent := time.Since(start)
	b.Close()
	<-done
	return float64(spent) / n
}
