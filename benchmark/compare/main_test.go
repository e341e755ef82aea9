package main

import "testing"

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", steady, steady, "unchanged"},
		{"worse within bound", steady, scale(steady, 1.05), "unchanged"},
		{"worse past bound", steady, scale(steady, 1.2), "regressed"},
		{"better", steady, scale(steady, 0.8), "improved"},
		{"spread wider than bound", steady, noisy, "unresolved"},
		{"noisy but every run better", noisy, scale(noisy, 0.3), "improved"},
	} {
		if got := judge(tc.a, tc.b, 0.1, true); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}
