package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"erasmus/internal/core"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder's base; Parent indexes the span that
// caused this one (-1 for a collection's root); spans of one collection
// share Collection.
type span struct {
	Name       string `json:"name"`
	Start      int64  `json:"start"`
	End        int64  `json:"end"`
	Parent     int32  `json:"parent"`
	Collection int32  `json:"collection"`
}

// Caps on what a traced run keeps: enough collections to show the steady
// state without the trace file or the probes outgrowing the run.
const (
	spanCollections = 5000
	probeRequests   = 20000
)

// recorder is the benchmark's instrumentation, called from its own code
// around each call into the program. With tracing off it stamps one
// launch time per collection (verdict latency is an end-to-end metric)
// and nothing else.
type recorder struct {
	base   time.Time
	traced bool

	// launchedAt is when each device's outstanding collection was due,
	// written at launch and read when its verdict is applied. Atomics,
	// because on a real transport the two happen on different goroutines
	// with no lock in common.
	launchedAt []atomic.Int64
	rootSpan   []atomic.Int32 // traced: the collection's root span

	// Engine-goroutine sums (replay): whole Collector call, load-source
	// self time, decoder, callback.
	collections                     int
	callNs, serveNs, decodeNs, cbNs int64
	requests                        []request // first probeRequests of the pass

	mu          sync.Mutex
	latencyUs   []float64 // launch → verdict applied
	cbToVerdict []float64 // traced: callback entry → verdict applied
	cbAt        []int64   // traced: per device, when its callback was entered
	rttUs       []float64 // traced, real transport: Collect call → callback
	spans       []span
}

func newRecorder(devices int, traced bool) *recorder {
	r := &recorder{
		base:       time.Now(),
		traced:     traced,
		launchedAt: make([]atomic.Int64, devices),
	}
	if traced {
		r.rootSpan = make([]atomic.Int32, devices)
		r.cbAt = make([]int64, devices)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// reserve sizes the per-collection sample slices before a timed region,
// so the recorder's own growth stays out of the allocation metrics.
func (r *recorder) reserve(collections int) {
	r.latencyUs = make([]float64, 0, collections)
	if r.traced {
		r.cbToVerdict = make([]float64, 0, collections)
		r.requests = make([]request, 0, probeRequests)
		r.spans = make([]span, 0, 5*spanCollections)
	}
}

// mark reads the clock on a traced run only.
func (r *recorder) mark() int64 {
	if !r.traced {
		return 0
	}
	return r.now()
}

// launch stamps a replay collection as due now and returns that time.
func (r *recorder) launch(dev int, req request) int64 {
	t := r.now()
	r.launchedAt[dev].Store(t)
	if r.traced && len(r.requests) < probeRequests {
		r.requests = append(r.requests, req)
	}
	return t
}

// answered accounts one exchange on a real transport: launched at t0,
// response (or error) in hand now. It runs on the transport's goroutine,
// just before the manager's callback.
func (r *recorder) answered(dev int, t0 int64) {
	if !r.traced {
		return
	}
	t1 := r.now()
	r.mu.Lock()
	r.rttUs = append(r.rttUs, float64(t1-t0)/1e3)
	r.cbAt[dev] = t1
	if id := int32(len(r.rttUs) - 1); id < spanCollections {
		r.rootSpan[dev].Store(int32(len(r.spans)))
		r.spans = append(r.spans, span{"udptransport.exchange", t0, t1, -1, id})
	} else {
		r.rootSpan[dev].Store(-1)
	}
	r.mu.Unlock()
}

// served accounts one answered replay collection: launched at t0,
// response built by t1, decoded by t2, callback returned now.
func (r *recorder) served(dev int, t0, t1, t2 int64) {
	r.collections++
	if !r.traced {
		return
	}
	t3 := r.now()
	r.callNs += t3 - t0
	r.serveNs += t1 - t0
	r.decodeNs += t2 - t1
	r.cbNs += t3 - t2
	r.mu.Lock()
	r.cbAt[dev] = t2
	if id := int32(r.collections - 1); id < spanCollections {
		root := int32(len(r.spans))
		r.rootSpan[dev].Store(root)
		r.spans = append(r.spans,
			span{"collector.call", t0, t3, -1, id},
			span{"loadgen.serve", t0, t1, root, id},
			span{"core.decode", t1, t2, root, id},
			span{"fleet.cb", t2, t3, root, id})
	} else {
		r.rootSpan[dev].Store(-1)
	}
	r.mu.Unlock()
}

// verdict accounts one applied report. On the synchronous path it runs
// inside the callback, before served has stored this collection's
// callback time, so only the launch-based latency is taken there.
func (r *recorder) verdict(dev int, inline bool) {
	t := r.now()
	r.mu.Lock()
	r.latencyUs = append(r.latencyUs, float64(t-r.launchedAt[dev].Load())/1e3)
	if r.traced && !inline {
		r.cbToVerdict = append(r.cbToVerdict, float64(t-r.cbAt[dev])/1e3)
		if root := r.rootSpan[dev].Load(); root >= 0 && int(root) < len(r.spans) {
			r.spans = append(r.spans, span{"fleet.verdict", r.cbAt[dev], t, root, r.spans[root].Collection})
		}
	}
	r.mu.Unlock()
}

// writeTrace writes the kept spans to dir/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// Outcome classes of one collection, as the alert logic distinguishes
// them.
const (
	outcomeOK = iota + 1
	outcomeInfection
	outcomeTamper
	outcomeUnhealthy
	outcomeFailed
)

func classify(rep core.Report) uint8 {
	switch {
	case rep.InfectionDetected:
		return outcomeInfection
	case rep.TamperDetected:
		return outcomeTamper
	case !rep.Healthy():
		return outcomeUnhealthy
	}
	return outcomeOK
}

// tally counts a pass's collections and checks each outcome against the
// one expected for that device and round: the oracle's on a replay
// workload, a clean verdict on udp-loopback.
type tally struct {
	mu     sync.Mutex
	expect [][]uint8 // per device, per round; nil expects outcomeOK
	record bool      // oracle pass: got becomes the expectation, nothing to check yet

	// got is each device's outcomes by round, 0 while unknown. A transport
	// failure is known at launch or at the callback; a verdict only when
	// the manager applies it, in launch order — so a report belongs to
	// the device's earliest round that has no outcome yet.
	got [][]uint8

	launched    int
	reports     int
	failures    int // collections that ended in a transport error
	mismatched  int // outcome differs from the expected one
	aggApplied  int
	aggFallback int
	recordMACs  int // per-record MACs the verifier recomputed
}

func newTally(devices int, expect [][]uint8) *tally {
	return &tally{expect: expect, got: make([][]uint8, devices)}
}

// launch accounts a collection leaving the manager and returns its
// round number for the device.
func (t *tally) launch(dev int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.launched++
	t.got[dev] = append(t.got[dev], 0)
	return len(t.got[dev]) - 1
}

// applied is the number of collections whose verdict the manager folded
// into device state.
func (t *tally) applied() int { return t.reports + t.failures }

// reportCounts files the per-tier counts, which repeat exactly for a
// repeated seed.
func (t *tally) reportCounts(m metricSet) {
	applied := float64(t.applied())
	m.set("core.record_macs_per_collection", float64(t.recordMACs)/applied)
	m.set("core.fastpath_share", float64(t.aggApplied)/applied)
	m.set("core.fallback_share", float64(t.aggFallback)/applied)
}

func (t *tally) outcome(dev, round int, got uint8) {
	t.got[dev][round] = got
	switch {
	case t.record:
	case t.expect == nil:
		if got != outcomeOK {
			t.mismatched++
		}
	case round >= len(t.expect[dev]) || t.expect[dev][round] != got:
		t.mismatched++
	}
}

// failed accounts a collection the transport could not complete.
func (t *tally) failed(dev, round int) {
	t.mu.Lock()
	t.failures++
	t.outcome(dev, round, outcomeFailed)
	t.mu.Unlock()
}

// report accounts one applied verification report (Manager.OnReport).
func (t *tally) report(dev int, rep core.Report) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reports++
	switch {
	case rep.AggregateApplied:
		t.aggApplied++
	default:
		if rep.AggregateFallback {
			t.aggFallback++
		}
		t.recordMACs += len(rep.Records)
	}
	for round, got := range t.got[dev] {
		if got == 0 {
			t.outcome(dev, round, classify(rep))
			return
		}
	}
	t.mismatched++ // a verdict for a collection that was never launched
}
