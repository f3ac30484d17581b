package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords loads the untraced records of a results file, by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Traced {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

// side is one file's runs of one metric on one workload.
type side struct {
	n           int
	median, iqr float64 // iqr is the quartile distance over the median
	min, max    float64
}

func sideOf(recs []record, name string) side {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	sort.Float64s(xs)
	if len(xs) == 0 {
		return side{}
	}
	return side{
		n: len(xs), median: quantile(xs, 0.5), min: xs[0], max: xs[len(xs)-1],
		iqr: ratio(quantile(xs, 0.75)-quantile(xs, 0.25), quantile(xs, 0.5)),
	}
}

// verdict classifies new against base for one metric: unresolved when
// either side's spread exceeds the bound (unless every new run beats every
// base run), worse when the new median is worse by more than the bound,
// better when it is better by more than the base spread, within-bound
// otherwise.
func verdict(m contractMetric, base, cur side) string {
	lower := m.Better == "lower"
	gain := ratio(cur.median-base.median, base.median) // > 0: new is higher
	if lower {
		gain = -gain
	}
	allBetter := cur.max < base.min
	if !lower {
		allBetter = cur.min > base.max
	}
	switch {
	case base.n == 0 || cur.n == 0:
		return "missing"
	case (base.iqr > m.Bound || cur.iqr > m.Bound) && !allBetter:
		return "unresolved"
	case gain < -m.Bound:
		return "worse"
	case gain > base.iqr:
		return "better"
	}
	return "within-bound"
}

// compareFiles reports every end-to-end metric per workload, base against
// new, with the ratio and the base it is taken over.
func compareFiles(w io.Writer, c *contract, basePath, newPath string) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	cur, err := readRecords(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-16s %24s %24s %22s  %s\n", "workload", "metric", "base median (n, iqr)", "new median (n, iqr)", "new/base", "verdict")
	for _, wl := range c.Workloads {
		for _, m := range c.EndToEnd {
			b, n := sideOf(base[wl.Name], m.Name), sideOf(cur[wl.Name], m.Name)
			fmt.Fprintf(w, "%-8s %-16s %12.6g (%2d, %5.3f) %12.6g (%2d, %5.3f) %8.4f of %-10.4g  %s\n",
				wl.Name, m.Name, b.median, b.n, b.iqr, n.median, n.n, n.iqr,
				ratio(n.median, b.median), b.median, verdict(m, b, n))
		}
	}
	return nil
}
