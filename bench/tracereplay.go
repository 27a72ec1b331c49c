package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"erasmus/internal/store"
)

// Gates of the traced run: beyond them the numbers do not mean what the
// metric names say.
const (
	maxLoadgenShare  = 0.15 // load source's share of the engine goroutine
	minFastpathShare = 0.95 // aggregate-tier engagement on a clean fleet
)

// errLoadgenShare marks a run that measured the generator. It is the one
// gate that depends on timing, so the toy-scale self-tests tell it apart.
var errLoadgenShare = errors.New("load source over its share of the engine goroutine")

// traceReplay is the traced run of a replay workload. It spends the
// run's duration on three kinds of pass — asynchronous passes with the
// benchmark's spans on, one synchronous pass that attributes the inline
// path, and plain/instrumented pairs for the observability overhead —
// then runs the one-layer probes on the requests the passes issued.
func traceReplay(w workload, o runOptions, out *result) error {
	rw, err := setUpReplay(w, o.seed, o.scratch+"/store-"+w.name)
	if err != nil {
		return err
	}
	err = rw.trace(o, out)
	if rmErr := rw.removeStores(); err == nil {
		err = rmErr
	}
	return err
}

// dropStore removes a finished pass's store directory.
func dropStore(res passResult) error {
	if res.storeDir == "" {
		return nil
	}
	return os.RemoveAll(res.storeDir)
}

func (rw *replayWorkload) trace(o runOptions, out *result) error {
	spec, m := rw.spec, out.Metrics
	warm, err := rw.runPass(passOpts{})
	if err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	if err := dropStore(warm); err != nil {
		return err
	}

	// Asynchronous traced passes: the layer boundaries of the real path.
	var serveUs, share, decodeUs, scheduleUs, submitUs, cbP50, cbP99, latP99 []float64
	var syncMs, pollUs []float64
	var spans []span
	var last passResult
	for start := time.Now(); last.tally == nil || time.Since(start).Seconds() < 0.3*o.seconds; {
		if err := dropStore(last); err != nil {
			return err
		}
		if last, err = rw.runPass(passOpts{traced: true, pass: len(serveUs) + 1}); err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		rec, n := last.rec, float64(last.rec.collections)
		serveUs = append(serveUs, float64(rec.serveNs)/1e3/n)
		share = append(share, float64(rec.serveNs)/float64(last.engineWall))
		decodeUs = append(decodeUs, float64(rec.decodeNs)/1e3/n)
		submitUs = append(submitUs, float64(rec.cbNs)/1e3/n)
		scheduleUs = append(scheduleUs, float64(int64(last.engineWall)-rec.callNs)/1e3/n)
		cbP50 = append(cbP50, percentile(rec.cbToVerdict, 0.50))
		cbP99 = append(cbP99, percentile(rec.cbToVerdict, 0.99))
		latP99 = append(latP99, percentile(rec.latencyUs, 0.99))
		syncMs = append(syncMs, last.syncMs...)
		pollUs = append(pollUs, last.pollUs...)
		if spans == nil {
			spans = rec.spans
		}
		out.Attempted += last.tally.launched
		out.Failed += failedOf(last.tally)
	}
	if err := writeTrace(o.scratch, rw.name, spans); err != nil {
		return err
	}
	m.setFrom("loadgen.serve_us", serveUs)
	m.setFrom("loadgen.share", share)
	m.setFrom("core.decode_us", decodeUs)
	m.setFrom("fleet.schedule_us", scheduleUs)
	m.setFrom("fleet.submit_block_us", submitUs)
	m.setFrom("fleet.cb_to_verdict_p50_us", cbP50)
	m.setFrom("fleet.cb_to_verdict_p99_us", cbP99)
	m.setFrom("fleet.verdict_latency_p99_us", latP99)

	// Exact counts: they repeat for a repeated seed.
	last.tally.reportCounts(m)
	m.set("failed_share", float64(out.Failed)/float64(out.Attempted))
	m.set("detection_delay_ratio_max", rw.detectionDelayRatio(last.alerts))
	out.AlertDigest = alertDigest(last.alerts)

	// durable-mixed: what the pass wrote, and what recovery reads back.
	if rw.durable {
		m.setFrom("store.sync_ms_p50", syncMs)
		m.setFrom("fleet.status_read_us", pollUs)
		m.set("store.wal_bytes_per_collection", float64(last.walBytes)/float64(last.tally.applied()))
		_, info, err := rw.restart(last.storeDir, last.alerts, 0)
		if err != nil {
			return err
		}
		m.set("store.replayed_records", float64(info.RecordsReplayed))
		snapMs, err := timeSnapshot(last.storeDir)
		if err != nil {
			return err
		}
		m.set("store.snapshot_ms", snapMs)
	}
	if err := dropStore(last); err != nil {
		return err
	}

	// One synchronous pass: the callback's duration is verify + apply +
	// journal inline, on the engine goroutine, with nothing queued.
	inline, err := rw.runPass(passOpts{traced: true, inline: true})
	if err != nil {
		return fmt.Errorf("synchronous traced pass: %w", err)
	}
	if err := dropStore(inline); err != nil {
		return err
	}
	out.Attempted += inline.tally.launched
	out.Failed += failedOf(inline.tally)
	out.Correct = out.Failed == 0

	// Observability overhead: passes with a metrics registry and span
	// tracer on the manager against plain ones, alternating.
	var plain, instrumented []float64
	for start := time.Now(); len(plain) < 2 || time.Since(start).Seconds() < 0.35*o.seconds; {
		pair := len(plain) // both passes of a pair get the same heap layout
		for _, withObs := range []bool{false, true} {
			res, err := rw.runPass(passOpts{obs: withObs, pass: pair})
			if err != nil {
				return fmt.Errorf("overhead pass: %w", err)
			}
			if err := dropStore(res); err != nil {
				return err
			}
			perS := float64(res.tally.applied()) / res.wall.Seconds()
			if withObs {
				instrumented = append(instrumented, perS)
			} else {
				plain = append(plain, perS)
			}
		}
	}
	_, plainMed, _ := quartiles(plain)
	_, obsMed, _ := quartiles(instrumented)
	m.set("obs.overhead_share", 1-obsMed/plainMed)

	// One-layer probes on the inline pass's own requests.
	m.set("sim.event_ns", probeSimEvent(spec.Devices, spec.TC(), spec.Rounds))
	m.set("mac.sum_ns", probeMACSum(rw.ev.devices[0].key))
	vp, err := rw.probeVerify(inline.rec.requests)
	if err != nil {
		return err
	}
	m.set("core.verify_us", vp.usPerCollection)
	m.set("core.verify_ns_per_record", vp.nsPerRecord)
	m.set("core.batch_speedup_2w", probeBatchSpeedup(vp.jobs))
	if rw.aggregate {
		m.set("core.service_set_ns", probeServiceSet(rw.ev.devices, vp.watermarks))
	}
	appendUs := 0.0
	if rw.durable {
		if appendUs, err = probeStoreAppend(rw.scratch+"/probe", rw.ev.devices, vp.watermarks); err != nil {
			return err
		}
		m.set("store.append_us", appendUs)
		m.set("obs.publish_ns", probePublish())
	}

	// Attribution of the synchronous pass: how much of the wall time of
	// one collection the independently measured layers account for. What
	// is left is fleet.apply_us, which is a residual — adding it would
	// make the share 1 by construction — so a share above 1 means the
	// probes overstate what the layers cost inside the pipeline.
	rec, n := inline.rec, float64(inline.rec.collections)
	wallUs := float64(inline.engineWall) / 1e3 / n
	inlineCb := float64(rec.cbNs) / 1e3 / n
	m.set("fleet.inline_cb_us", inlineCb)
	m.set("fleet.apply_us", math.Max(0, inlineCb-vp.usPerCollection-appendUs))
	m.set("trace.attributed_share", (wallUs-inlineCb+vp.usPerCollection+appendUs)/wallUs)

	if got := m["loadgen.share"].Value; got > maxLoadgenShare {
		return fmt.Errorf("%w: %.3f, gate %.2f: the run measures the generator", errLoadgenShare, got, maxLoadgenShare)
	}
	if got := m["core.fastpath_share"].Value; rw.aggregate && !rw.durable && got < minFastpathShare {
		return fmt.Errorf("aggregate tier judged %.3f of collections (gate %.2f): not a steady state", got, minFastpathShare)
	}
	return nil
}

// timeSnapshot re-opens a pass's store and times an explicit Snapshot.
func timeSnapshot(dir string) (ms float64, err error) {
	st, err := store.Open(dir, store.Options{SnapshotEvery: 100_000})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	err = st.Snapshot()
	ms = float64(time.Since(start)) / 1e6
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return ms, err
}
