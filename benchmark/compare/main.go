// Command compare judges two results files of the benchmark suite
// against the regression bounds in BENCHMARK.json:
//
//	go run ./compare A.json B.json
//
// from the benchmark directory, which it finds ../BENCHMARK.json from.
//
// For every workload and end-to-end metric it prints each side's median
// and quartiles and a verdict for B against A. A metric whose quartile
// spread on either side exceeds its bound is unresolved, not unchanged,
// unless every B value is better (or worse) than every A value. The exit
// status is 1 when any metric regressed.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

type bench struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type results struct {
	Workloads map[string]map[string]struct {
		Values []float64 `json:"values"`
	} `json:"workloads"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: compare A.json B.json")
		os.Exit(2)
	}
	var spec bench
	var a, b results
	for _, f := range []struct {
		path string
		v    any
	}{{"../BENCHMARK.json", &spec}, {os.Args[1], &a}, {os.Args[2], &b}} {
		raw, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(raw, f.v)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(2)
		}
	}

	var names []string
	for w := range a.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	regressed := false
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			av, bv := a.Workloads[w][m.Name].Values, b.Workloads[w][m.Name].Values
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t%.0f%%\tmissing\n", w, m.Name, 100*m.Bound)
				regressed = true
				continue
			}
			v := judge(av, bv, m.Bound, m.Better == "lower")
			regressed = regressed || v == "regressed"
			sa, sb := summarize(av), summarize(bv)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", w, m.Name, sa, sb,
				100*(median(bv)-median(av))/median(av), 100*m.Bound, v)
		}
	}
	tw.Flush()
	if regressed {
		os.Exit(1)
	}
}

// judge compares B's values with A's for a metric where lowerBetter
// says which direction is good.
func judge(a, b []float64, bound float64, lowerBetter bool) string {
	worse := func(x, y float64) bool { // x worse than y
		if lowerBetter {
			return x > y
		}
		return x < y
	}
	ma, mb := median(a), median(b)
	if spread(a) > bound || spread(b) > bound {
		switch {
		case worse(minBy(a, worse), maxBy(b, worse)):
			return "improved"
		case worse(minBy(b, worse), maxBy(a, worse)):
			return "regressed"
		}
		return "unresolved"
	}
	q1, q3 := quartiles(a)
	switch {
	case worse(mb, ma) && math.Abs(mb-ma) > bound*math.Abs(ma):
		return "regressed"
	case worse(ma, mb) && math.Abs(mb-ma) > q3-q1:
		return "improved"
	}
	return "unchanged"
}

// minBy returns the best value of xs, maxBy the worst, under worse.
func minBy(xs []float64, worse func(x, y float64) bool) float64 {
	best := xs[0]
	for _, x := range xs[1:] {
		if worse(best, x) {
			best = x
		}
	}
	return best
}

func maxBy(xs []float64, worse func(x, y float64) bool) float64 {
	w := xs[0]
	for _, x := range xs[1:] {
		if worse(x, w) {
			w = x
		}
	}
	return w
}

func summarize(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles computes the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method); a single
// value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
