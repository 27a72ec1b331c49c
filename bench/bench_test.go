package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// toy shrinks a workload until one run takes well under a second of
// measuring, so the self-tests ride along with tier-1. The fleet stays
// larger than the manager's verification queue: with fewer devices than
// queue slots a device's next round launches before its last verdict is
// applied and the manager, by design, leaves the aggregate tier.
func toy(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 10 // the adversary plan needs 8
	switch name {
	case "steady-agg":
		rounds = 30 // its fast-path gate needs the bootstrap round to be under 5 % of all rounds
	case "audit-full":
		rounds = 4 // 32 MACs a collection: the costly one
	}
	return w.scaled(400, rounds)
}

// scaled shrinks a workload for the self-tests: fewer devices and, on
// replay workloads, fewer rounds.
func (w workload) scaled(devices, rounds int) workload {
	if w.udp != nil {
		u := *w.udp
		u.Devices = devices
		w.udp = &u
		return w
	}
	w.spec.Devices, w.spec.Rounds = devices, rounds
	return w
}

func toyOptions(t *testing.T, w workload, traced bool) runOptions {
	o := runOptions{seed: 5, seconds: 0.15, traced: traced, scratch: t.TempDir()}
	if w.udp != nil {
		o.seconds = 0.7 // wall-paced: the first collections are due TC = 250 ms in
		if traced {
			o.seconds = 1.0 // the open loop gets 0.6 of it
		}
	}
	return o
}

// benchmarkJSON is the driver's view of the benchmark.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclarationsMatchBenchmarkJSON holds the Go tables and
// BENCHMARK.json to the same workloads, names, units, directions and
// bounds.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, got, d)
		}
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at toy scale, with
// tracing off and on, and checks that the run is correct and emits
// exactly the metric names BENCHMARK.json declares for that mode — the
// end-to-end ones all non-zero.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			mode := "untraced"
			if traced {
				mode = "traced"
			}
			t.Run(w.Name+"/"+mode, func(t *testing.T) { // not parallel: heap and CPU readings are process-wide
				tw := toy(t, w.Name)
				res, err := run(tw, toyOptions(t, tw, traced))
				if errors.Is(err, errLoadgenShare) {
					t.Skipf("timing gate at toy scale (race detector, loaded machine): %v", err)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				var want []string
				for _, d := range b.EndToEnd {
					if !traced {
						want = append(want, d.Name)
					}
				}
				for _, d := range b.PerLayer {
					if traced {
						want = append(want, d.Name)
					}
				}
				var got []string
				for name, s := range res.Metrics {
					got = append(got, name)
					if !traced && s.Value <= 0 {
						t.Errorf("%s = %v, end-to-end metrics are never zero", name, s.Value)
					}
				}
				sort.Strings(want)
				sort.Strings(got)
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("emitted %v\ndeclared %v", got, want)
				}
			})
		}
	}
}

// TestOracleGateCatchesFlippedBytes corrupts one byte of evidence after
// set-up: a MAC byte under full verification, a hash byte under the
// aggregate tier (which, by design, does not read a non-anchor record's
// MAC field). Either must fail the pass, which is what makes the command
// exit non-zero.
func TestOracleGateCatchesFlippedBytes(t *testing.T) {
	for _, tc := range []struct {
		workload string
		offset   int // within the record: 8 = first hash byte, 40 = first MAC byte
	}{{"audit-full", 40}, {"steady-agg", 8}, {"durable-mixed", 8}} {
		t.Run(tc.workload, func(t *testing.T) {
			rw, err := setUpReplay(toy(t, tc.workload), 5, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rw.runPass(passOpts{}); err != nil {
				t.Fatalf("clean pass: %v", err)
			}
			d := rw.ev.devices[3]
			d.record(rw.ev, d.n/2)[tc.offset] ^= 0x80
			if _, err := rw.runPass(passOpts{}); err == nil {
				t.Fatal("a pass over corrupted evidence still matched the oracle")
			} else if !strings.Contains(err.Error(), "differs from the oracle") {
				t.Fatalf("pass failed for another reason: %v", err)
			}
		})
	}
}

// exactMetrics are counts made in virtual time or over planned inputs:
// they must repeat exactly for a repeated seed.
var exactMetrics = []string{
	"core.record_macs_per_collection", "core.fastpath_share", "core.fallback_share",
	"detection_delay_ratio_max", "failed_share", "store.replayed_records",
}

// TestSameSeedRepeats runs the adversarial workload twice on one seed:
// the same seed gives the same alert stream and the same exact counts,
// and another seed gives another stream.
func TestSameSeedRepeats(t *testing.T) {
	w := toy(t, "durable-mixed")
	runSeed := func(seed int64) *result {
		o := toyOptions(t, w, true)
		o.seed = seed
		res, err := run(w, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runSeed(5), runSeed(5)
	if a.AlertDigest == "" || a.AlertDigest != b.AlertDigest {
		t.Errorf("same seed, alert digests %q and %q", a.AlertDigest, b.AlertDigest)
	}
	for _, name := range exactMetrics {
		if a.Metrics[name].Value != b.Metrics[name].Value {
			t.Errorf("same seed, %s = %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	if a.Metrics["detection_delay_ratio_max"].Value <= 0 {
		t.Error("no planned infection was detected")
	}
	other, err := setUpReplay(w, 6, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if alertDigest(other.alerts) == a.AlertDigest {
		t.Error("a different seed produced the same alert stream")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, med, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, med, q3)
	}
}

// TestCompare checks the regression rules: worse than the bound fails,
// a spread wider than the bound is unresolved rather than unchanged, a
// larger failed share fails.
func TestCompare(t *testing.T) {
	decl := metricDecl{Name: "cpu_us_per_collection", Unit: "us", Better: "lower", Bound: 0.07}
	base := sample{Value: 10, Q1: 9.9, Q3: 10.1}
	for _, tc := range []struct {
		name string
		new  sample
		want string
	}{
		{"within bound", sample{Value: 10.5, Q1: 10.4, Q3: 10.6}, "ok"},
		{"improved", sample{Value: 8, Q1: 7.9, Q3: 8.1}, "ok"},
		{"beyond bound", sample{Value: 10.8, Q1: 10.7, Q3: 10.9}, "REGRESSION"},
		{"too noisy to tell", sample{Value: 10.2, Q1: 9.5, Q3: 10.9}, "unresolved"},
	} {
		if got := judge(decl, false, base, tc.new).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	higher := metricDecl{Name: "collections_per_s", Better: "higher", Bound: 0.10}
	if got := judge(higher, false, sample{Value: 100, Q1: 99, Q3: 101}, sample{Value: 85, Q1: 84, Q3: 86}).verdict; got != "REGRESSION" {
		t.Errorf("throughput drop: verdict %q", got)
	}

	dir := t.TempDir()
	write := func(name string, failed int) string {
		m := metricSet{}
		for _, d := range endToEnd {
			m[d.Name] = sample{Value: 10, Q1: 10, Q3: 10, N: 3, Unit: d.Unit}
		}
		data, err := json.Marshal([]*result{{Workload: "steady-agg", Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: m}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	clean, failing := write("clean.json", 0), write("failing.json", 3)
	var out strings.Builder
	if regressed, err := compareFiles(&out, clean, clean); err != nil || regressed {
		t.Errorf("a file against itself: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if n := strings.Count(out.String(), "steady-agg"); n != len(endToEnd) {
		t.Errorf("%d rows for one workload, want one per end-to-end metric (%d)\n%s", n, len(endToEnd), out.String())
	}
	if regressed, err := compareFiles(&out, clean, failing); err != nil || !regressed {
		t.Errorf("a larger failed share: regressed=%v err=%v", regressed, err)
	}
}
