package main

import (
	"errors"
	"sync"
	"time"

	"erasmus/internal/sim"
	"erasmus/internal/udptransport"
)

// slowExchange is the round-trip time beyond which an exchange must have
// been retransmitted: the client's per-attempt timeout is 500 ms.
const slowExchangeUs = 400_000

// traceUDP is the traced run of udp-loopback: the open loop again with
// the benchmark's spans on, then closed-loop probes of the transport
// alone and the cost of the hosted provers alone.
func traceUDP(w workload, o runOptions, out *result) error {
	f, err := setUpUDP(*w.udp, o.seed)
	if err != nil {
		return err
	}
	err = f.trace(w, o, out)
	return errors.Join(err, f.srv.Close())
}

func (f *udpFleet) trace(w workload, o runOptions, out *result) error {
	driven := 0.6 * o.seconds
	run, err := f.drive(driven, true)
	if err != nil {
		return err
	}
	rec, tl, m := run.rec, run.tally, out.Metrics
	if err := writeTrace(o.scratch, w.name, rec.spans); err != nil {
		return err
	}
	out.Attempted, out.Failed = tl.launched, failedOf(tl)
	out.Correct = out.Failed == 0
	out.AlertDigest = alertDigest(run.alerts)

	slow := 0
	for _, us := range rec.rttUs {
		if us > slowExchangeUs {
			slow++
		}
	}
	m.set("udptransport.slow_share", float64(slow)/float64(len(rec.rttUs)))
	m.set("udptransport.rtt_p50_us", percentile(rec.rttUs, 0.50))
	m.set("udptransport.rtt_p99_us", percentile(rec.rttUs, 0.99))
	m.set("fleet.cb_to_verdict_p50_us", percentile(rec.cbToVerdict, 0.50))
	m.set("fleet.cb_to_verdict_p99_us", percentile(rec.cbToVerdict, 0.99))
	m.set("fleet.verdict_latency_p99_us", percentile(run.latency, 0.99))
	m.set("loadgen.late_p50_us", percentile(run.lateUs, 0.50))
	tl.reportCounts(m)
	m.set("failed_share", float64(out.Failed)/float64(out.Attempted))

	// The transport alone, closed loop: one socket at two datagram sizes,
	// then two sockets — does the server's one lock let them overlap?
	probeFor := time.Duration(0.1 * o.seconds * float64(time.Second))
	for _, p := range []struct {
		name    string
		k, pool int
	}{{"udptransport.exchange_us.k1", 1, 1}, {"udptransport.exchange_us.k16", 16, 1}, {"udptransport.exchanges_per_s.c2", 1, 2}} {
		perS, err := f.probeExchange(p.k, p.pool, probeFor)
		if err != nil {
			return err
		}
		if p.pool == 1 {
			m.set(p.name, 1e6/perS)
		} else {
			m.set(p.name, perS)
		}
	}

	// The provers alone: the same population measuring over the same
	// span of virtual time, with nobody collecting.
	alone, err := buildProvers(f.spec, o.seed)
	if err != nil {
		return err
	}
	cpu := cpuTime()
	alone.engine.RunUntil(alone.prefill + sim.Ticks(driven*float64(sim.Second)))
	m.set("loadgen.prover_us_per_collection", float64(cpuTime()-cpu)/1e3/float64(tl.launched))

	m.set("sim.event_ns", probeSimEvent(f.spec.Devices, f.spec.TM, int(driven/f.spec.TM.Seconds())))
	m.set("mac.sum_ns", probeMACSum(f.devices[0].key))
	return nil
}

// probeExchange runs closed-loop collections of k records over pool
// sockets, one goroutine per socket, and returns exchanges per second.
func (f *udpFleet) probeExchange(k, pool int, d time.Duration) (float64, error) {
	fc, err := udptransport.DialFleet(f.srv.Addr().String(), pool)
	if err != nil {
		return 0, err
	}
	counts, errs := make([]int, pool), make([]error, pool)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < pool; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; time.Since(start) < d; i += pool {
				if _, err := fc.Collect(f.devices[i%len(f.devices)].addr, benchAlg, k); err != nil {
					errs[g] = err
					return
				}
				counts[g]++
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := 0
	for _, n := range counts {
		total += n
	}
	return float64(total) / elapsed.Seconds(), errors.Join(append(errs, fc.Close())...)
}
