package main

import (
	"fmt"
	"sort"
)

// metricDecl declares one benchmark metric. The tables below are the
// single source of the names, units, directions and regression bounds;
// BENCHMARK.json repeats them for the driver and a self-test checks that
// the two agree.
type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median a metric may worsen; end-to-end only
}

// endToEnd is measured with tracing off, on every workload.
var endToEnd = []metricDecl{
	{"collections_per_s", "1/s", "higher", 0.15},
	{"cpu_us_per_collection", "us", "lower", 0.15},
	{"allocs_per_collection", "count", "lower", 0.03},
	{"alloc_bytes_per_collection", "B", "lower", 0.03},
	{"heap_bytes_per_device", "B", "lower", 0.05},
	{"verdict_latency_p50_us", "us", "lower", 0.25},
	{"recovery_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is measured on the traced run. A metric that does not apply
// to a workload reads 0 there (store.* outside durable-mixed,
// udptransport.* outside udp-loopback).
var perLayer = []metricDecl{
	{"failed_share", "ratio", "lower", 0},
	{"detection_delay_ratio_max", "ratio", "lower", 0},
	{"loadgen.serve_us", "us", "lower", 0},
	{"loadgen.share", "ratio", "lower", 0},
	{"loadgen.prover_us_per_collection", "us", "lower", 0},
	{"loadgen.late_p50_us", "us", "lower", 0},
	{"sim.event_ns", "ns", "lower", 0},
	{"fleet.schedule_us", "us", "lower", 0},
	{"fleet.submit_block_us", "us", "lower", 0},
	{"fleet.cb_to_verdict_p50_us", "us", "lower", 0},
	{"fleet.cb_to_verdict_p99_us", "us", "lower", 0},
	{"fleet.inline_cb_us", "us", "lower", 0},
	{"fleet.apply_us", "us", "lower", 0},
	{"fleet.status_read_us", "us", "lower", 0},
	{"fleet.verdict_latency_p99_us", "us", "lower", 0},
	{"core.decode_us", "us", "lower", 0},
	{"core.verify_us", "us", "lower", 0},
	{"core.verify_ns_per_record", "ns", "lower", 0},
	{"core.record_macs_per_collection", "count", "lower", 0},
	{"core.fastpath_share", "ratio", "higher", 0},
	{"core.fallback_share", "ratio", "lower", 0},
	{"core.batch_speedup_2w", "ratio", "higher", 0},
	{"core.service_set_ns", "ns", "lower", 0},
	{"mac.sum_ns", "ns", "lower", 0},
	{"store.append_us", "us", "lower", 0},
	{"store.sync_ms_p50", "ms", "lower", 0},
	{"store.snapshot_ms", "ms", "lower", 0},
	{"store.wal_bytes_per_collection", "B", "lower", 0},
	{"store.replayed_records", "count", "lower", 0},
	{"obs.publish_ns", "ns", "lower", 0},
	{"obs.overhead_share", "ratio", "lower", 0},
	{"trace.attributed_share", "ratio", "higher", 0},
	{"udptransport.rtt_p50_us", "us", "lower", 0},
	{"udptransport.rtt_p99_us", "us", "lower", 0},
	{"udptransport.slow_share", "ratio", "lower", 0},
	{"udptransport.exchange_us.k1", "us", "lower", 0},
	{"udptransport.exchange_us.k16", "us", "lower", 0},
	{"udptransport.exchanges_per_s.c2", "1/s", "higher", 0},
}

// sample is one reported metric: the median of its per-pass (or
// per-window) values, their quartiles and how many there were.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// metricSet collects a run's samples by metric name.
type metricSet map[string]sample

// set records a metric that has a single reading.
func (m metricSet) set(name string, v float64) {
	m[name] = sample{Value: v, Q1: v, Q3: v, N: 1}
}

// setFrom records a metric as the median of vs with its quartiles.
func (m metricSet) setFrom(name string, vs []float64) {
	if len(vs) == 0 {
		m.set(name, 0)
		return
	}
	q1, med, q3 := quartiles(vs)
	m[name] = sample{Value: med, Q1: q1, Q3: q3, N: len(vs)}
}

// conform fills in units and zeros for the declared metrics and reports
// any name that is not declared, so a run always emits exactly decls.
func (m metricSet) conform(decls []metricDecl) error {
	known := make(map[string]bool, len(decls))
	for _, d := range decls {
		known[d.Name] = true
		s := m[d.Name]
		s.Unit = d.Unit
		m[d.Name] = s
	}
	var extra []string
	for name := range m {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("undeclared metrics %v", extra)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of vs
// by the method of Python's statistics.quantiles(vs, n=4) (exclusive),
// which is what the driver applies across runs.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// percentile returns the p-th percentile (0 ≤ p ≤ 1) of vs by nearest
// rank; vs is sorted in place.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(p*float64(len(vs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return vs[i]
}
