package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// compareFiles applies each end-to-end metric's bound, per workload,
// between two result files of the same benchmark and writes one row per
// (workload, metric). It reports whether any metric regressed or any
// workload's failed share grew.
//
// A file holds the results of one or more runs. With several runs of a
// workload the runs' values give the median and quartiles; with one, the
// run's own per-pass quartiles do.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	before, err := loadResults(oldPath)
	if err != nil {
		return false, err
	}
	after, err := loadResults(newPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tchange\tbound\tspread\tverdict")
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			a, b := pool(before, wl.name, traced), pool(after, wl.name, traced)
			if a == nil || b == nil {
				continue
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			for _, d := range decls {
				row := judge(d, traced, a.metrics[d.Name], b.metrics[d.Name])
				regressed = regressed || row.verdict == "REGRESSION"
				fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%s\t%.1f%%\t%s\n",
					wl.name, d.Name, row.old, row.new, 100*row.change, row.bound, 100*row.spread, row.verdict)
			}
			if b.failedShare > a.failedShare {
				regressed = true
				fmt.Fprintf(tw, "%s\tfailed share\t%.4g\t%.4g\t\t0\t\tREGRESSION\n", wl.name, a.failedShare, b.failedShare)
			}
		}
	}
	return regressed, tw.Flush()
}

func loadResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// pooled is every run of one workload in one mode, folded together.
type pooled struct {
	metrics     metricSet
	failedShare float64
}

func pool(rs []*result, workload string, traced bool) *pooled {
	values := make(map[string][]float64)
	var single *result
	runs, attempted, failed := 0, 0, 0
	for _, r := range rs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		runs++
		single = r
		attempted += r.Attempted
		failed += r.Failed
		for name, s := range r.Metrics {
			values[name] = append(values[name], s.Value)
		}
	}
	if runs == 0 {
		return nil
	}
	p := &pooled{metrics: metricSet{}}
	if attempted > 0 {
		p.failedShare = float64(failed) / float64(attempted)
	}
	if runs == 1 {
		p.metrics = single.Metrics
		return p
	}
	for name, vs := range values {
		p.metrics.setFrom(name, vs)
	}
	return p
}

type verdictRow struct {
	old, new       float64
	change, spread float64 // shares of the old median; change > 0 is worse
	bound, verdict string
}

// judge compares one metric. Worse than the bound is a regression. Within
// the bound, a quartile spread wider than the bound means the runs cannot
// tell unchanged from regressed, and the row says so.
func judge(d metricDecl, traced bool, a, b sample) verdictRow {
	row := verdictRow{old: a.Value, new: b.Value, bound: "-", verdict: "-"}
	if a.Value == 0 {
		return row
	}
	row.change = (b.Value - a.Value) / a.Value
	if d.Better == "higher" {
		row.change = -row.change
	}
	row.spread = (a.Q3 - a.Q1) / a.Value
	if s := (b.Q3 - b.Q1) / a.Value; s > row.spread {
		row.spread = s
	}
	if traced {
		return row // per-layer metrics explain; they carry no bound
	}
	row.bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
	switch {
	case row.change > d.Bound:
		row.verdict = "REGRESSION"
	case row.spread > d.Bound:
		row.verdict = "unresolved"
	default:
		row.verdict = "ok"
	}
	return row
}
