package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// compareLedgers prints, per workload and gated end-to-end metric, the
// median over the runs of A and of B, B's ratio to A, the bound, and a
// verdict: regressed when B's median is worse than A's by more than the
// bound; unresolved when either side's run-to-run spread (interquartile
// range over median) is wider than the bound, so the medians cannot be told
// apart; else ok. It reports whether anything regressed.
func compareLedgers(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA median (n, spread)\tB median (n, spread)\tB/A\tbound\tverdict\n")
	regressed := false
	for _, wl := range workloads() {
		for _, spec := range gated {
			va, vb := a.values(wl.name, spec.Name), b.values(wl.name, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(append([]float64(nil), va...)), median(append([]float64(nil), vb...))
			sa, sb := spread(va), spread(vb)
			worse := (mb - ma) / ma
			if spec.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			switch {
			case worse > spec.Bound:
				verdict = "regressed"
				regressed = true
			case max(sa, sb) > spec.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g (%d, %.1f%%)\t%.4g (%d, %.1f%%)\t%.3f of %.4g\t%.2f\t%s\n",
				wl.name, spec.Name, ma, len(va), 100*sa, mb, len(vb), 100*sb, mb/ma, ma, spec.Bound, verdict)
		}
	}
	return regressed, tw.Flush()
}

// values collects one untraced metric of one workload over a file's runs.
func (lf *ledgerFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range lf.Runs {
		for _, wr := range r.Workloads {
			if wr.Workload != workload || wr.Traced {
				continue
			}
			if m, ok := wr.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}
