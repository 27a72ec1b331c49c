// Command bench is the repository's benchmark: it measures the ERASMUS
// verifier — collector callback in, journaled verdict and published alert
// out — on four fixed workloads, checks every run's outputs against an
// oracle, and reports end-to-end metrics (tracing off) or per-layer
// metrics (tracing on). See README.md in this directory.
//
// The package is a module of its own (go.mod beside this file) that takes
// the program's packages from the repository around it; bench/run.sh
// builds it and runs it from the repository root:
//
//	bash bench/run.sh                                   every workload, both runs
//	bash bench/run.sh -workload steady-agg -seed 2      one untraced run
//	bash bench/run.sh -workload steady-agg -trace 1     its traced run
//	bash bench/run.sh -compare old.json new.json        regression check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// defaultSeconds is the measuring time of one run (BENCHMARK.json's
// run_seconds).
const defaultSeconds = 15

func main() {
	name := flag.String("workload", "", "workload to run (default: every workload, untraced then traced)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "seconds one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := flag.String("out", "", "also write the results as JSON to this file")
	scratch := flag.String("scratch", "bench/out", "directory for store files and traces")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files, got %d", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	opts := runOptions{seed: *seed, seconds: *seconds, scratch: *scratch}
	var results []*result
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		opts.traced = *trace != 0
		res, err := run(w, opts)
		if err != nil {
			fatal(err)
		}
		results = append(results, res)
	} else {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				opts.traced = traced
				res, err := run(w, opts)
				if err != nil {
					fatal(err)
				}
				results = append(results, res)
			}
		}
	}

	for _, res := range results {
		printResult(res)
	}
	if *out != "" {
		data, err := json.MarshalIndent(results, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	ok := true
	for _, res := range results {
		ok = ok && res.Correct
	}
	if *name != "" {
		// The driver's contract: one JSON object as the last line.
		if err := json.NewEncoder(os.Stdout).Encode(driverLine(results[0])); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// printResult lists every metric of a run by name with its unit.
func printResult(res *result) {
	mode := "end-to-end, tracing off"
	if res.Traced {
		mode = "per-layer, traced run"
	}
	fmt.Printf("== %s (seed %d; %s) correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, mode, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := res.Metrics[name]
		fmt.Printf("%-36s %14.4f %-6s", name, s.Value, s.Unit)
		if s.N > 1 {
			fmt.Printf(" q1 %.4f q3 %.4f n=%d", s.Q1, s.Q3, s.N)
		}
		fmt.Println()
	}
}

// driverLine is the result object the benchmark driver reads.
func driverLine(res *result) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.Metrics))
	for name, s := range res.Metrics {
		metrics[name] = value{s.Value, s.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics}
}
