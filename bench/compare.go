package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// benchmarkDecl is the part of BENCHMARK.json the program reads.
type benchmarkDecl struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkDecl(path string) (*benchmarkDecl, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchmarkDecl
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// readRuns reads an -out file: one result per line.
func readRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// valuesOf collects one end-to-end metric of one workload over the
// untraced runs of a file.
func valuesOf(runs []result, workload, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if r.Workload == workload && !r.Traced {
			if m, ok := r.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// verdict judges B against A on one metric: "regressed" when B's median
// is worse than A's by more than the bound, "unresolved" when the
// run-to-run spread of either side is wider than the bound (unless every
// run of B reads better than every run of A), "ok" otherwise.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) string {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if !lowerIsBetter {
		worse = -worse
	}
	if spread(a) > bound || spread(b) > bound {
		allBetter := slices.Max(b) < slices.Min(a)
		if !lowerIsBetter {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if !allBetter {
			return "unresolved"
		}
	}
	if worse > bound {
		return "regressed"
	}
	return "ok"
}

// runCompare prints, per workload and end-to-end metric, both files'
// medians and quartiles, the ratio B/A with its base, and the verdict
// against the bounds in the benchmark declaration; then every exact
// count and model_digest on which runs of the same workload and seed
// disagree.
func runCompare(w io.Writer, declPath, pathA, pathB string) error {
	decl, err := readBenchmarkDecl(declPath)
	if err != nil {
		return err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "A = %s (%d runs), B = %s (%d runs); ratio = B/A, base A\n", pathA, len(a), pathB, len(b))
	fmt.Fprintf(w, "%-12s %-18s %3s %12s %25s %3s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "nA", "median A", "quartiles A", "nB", "median B", "quartiles B", "ratio", "bound", "verdict")
	for _, wl := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			va, vb := valuesOf(a, wl.Name, m.Name), valuesOf(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Fprintf(w, "%-12s %-18s %3d %12.6g %12.6g..%-11.6g %3d %12.6g %12.6g..%-11.6g %8.4f %5.0f%%  %s\n",
				wl.Name, m.Name, len(va), median(va), a1, a3, len(vb), median(vb), b1, b3,
				median(vb)/median(va), 100*m.Bound, verdict(va, vb, m.Better == "lower", m.Bound))
		}
	}

	fmt.Fprintf(w, "\nexact counts and model_digest (runs paired by workload, seed and traced):\n")
	exact := map[string]bool{}
	for _, m := range perLayer {
		if m.exact {
			exact[m.name] = true
		}
	}
	type key struct {
		workload string
		seed     uint64
		traced   bool
	}
	first := map[key]result{}
	for _, r := range a {
		if _, ok := first[key{r.Workload, r.Seed, r.Traced}]; !ok {
			first[key{r.Workload, r.Seed, r.Traced}] = r
		}
	}
	pairs, mismatches := 0, 0
	for _, rb := range b {
		ra, ok := first[key{rb.Workload, rb.Seed, rb.Traced}]
		if !ok {
			continue
		}
		pairs++
		if ra.ModelDigest != rb.ModelDigest {
			mismatches++
			fmt.Fprintf(w, "  %s seed %d: model_digest %.12s != %.12s\n", rb.Workload, rb.Seed, ra.ModelDigest, rb.ModelDigest)
		}
		names := make([]string, 0, len(rb.Metrics))
		for name := range rb.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if exact[name] && ra.Metrics[name].Value != rb.Metrics[name].Value {
				mismatches++
				fmt.Fprintf(w, "  %s seed %d: %s %v != %v\n", rb.Workload, rb.Seed, name, ra.Metrics[name].Value, rb.Metrics[name].Value)
			}
		}
	}
	fmt.Fprintf(w, "  %d pairs, %d mismatches\n", pairs, mismatches)
	return nil
}
