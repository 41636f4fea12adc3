package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the program reads: -compare
// takes the workloads and the bound of every end-to-end metric from it,
// and the test holds all three tables against the program's own.
type benchmarkFile struct {
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

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &bf, nil
}

// readSide loads one side of a comparison: a comma-separated list of -out
// files, all of the same commit.
func readSide(list string) ([]resultFile, error) {
	var side []resultFile
	for _, path := range strings.Split(list, ",") {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		var rf resultFile
		if err := json.Unmarshal(buf, &rf); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", path, err)
		}
		side = append(side, rf)
	}
	return side, nil
}

// sideValues collects one metric of one workload across a side's files.
func sideValues(side []resultFile, workload, metric string) []float64 {
	var xs []float64
	for _, rf := range side {
		for _, o := range rf.Results {
			if v, ok := o.EndToEnd[metric]; ok && o.Workload == workload {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

// spread is the distance between the quartiles of xs (its range when there
// are too few values for quartiles) as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = median(s[:len(s)/2]), median(s[(len(s)+1)/2:])
	}
	return (hi - lo) / median(xs)
}

// verdict judges side B against side A for one metric. worse is how much
// B's median is worse than A's, as a share of A's (negative: better).
func verdict(a, b []float64, better string, bound float64, exact bool) (worse float64, v string) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	if ma != 0 {
		worse = sign * (mb - ma) / ma
	}
	if exact {
		// Simulated: the same commit and seed repeat to the digit, so any
		// difference is a change in the execution, better or worse.
		for _, x := range append(append([]float64(nil), a...), b...) {
			if x != a[0] {
				return worse, "FAIL (exact metric differs)"
			}
		}
		return worse, "PASS"
	}
	if worse <= bound {
		if spread(a) > bound || spread(b) > bound {
			return worse, "UNRESOLVED (spread wider than bound)"
		}
		return worse, "PASS"
	}
	return worse, "FAIL"
}

func runCompare(benchmarkPath, listA, listB string, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err == nil {
		var a, b []resultFile
		if a, err = readSide(listA); err == nil {
			if b, err = readSide(listB); err == nil {
				return compareSides(bf, a, b, stdout)
			}
		}
	}
	fmt.Fprintln(stderr, err)
	return 2
}

func compareSides(bf *benchmarkFile, a, b []resultFile, stdout io.Writer) int {
	exact := map[string]bool{}
	for _, s := range endToEnd {
		exact[s.Name] = s.Exact
	}
	code := 0
	fmt.Fprintf(stdout, "%-22s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			xa, xb := sideValues(a, w.Name, m.Name), sideValues(b, w.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(stdout, "%-22s %-24s %14s %14s %9s %7s  %s\n", w.Name, m.Name, "-", "-", "-", "-", "FAIL (missing)")
				code = 1
				continue
			}
			worse, v := verdict(xa, xb, m.Better, m.Bound, exact[m.Name])
			if strings.HasPrefix(v, "FAIL") {
				code = 1
			}
			fmt.Fprintf(stdout, "%-22s %-24s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				w.Name, m.Name, median(xa), median(xb), 100*worse, 100*m.Bound, v)
		}
	}
	return code
}
