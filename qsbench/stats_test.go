package main

import (
	"math"
	"testing"
)

func TestMedianAndQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median(xs[:5]); got != 3 {
		t.Errorf("median of {5,1,4,2,3} = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 9 {
		t.Errorf("nearest-rank p90 of 1..10 = %v, want 9", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

func TestSamplesBeyondP90(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 0}, {1, 0}, {10, 1}, {99, 9}, {100, 10}, {250, 25}} {
		if got := beyond(c.n, 0.9); got != c.want {
			t.Errorf("beyond(%d, 0.9) = %d, want %d", c.n, got, c.want)
		}
	}
	if got := minSamplesFor(0.9, 10); got != 100 {
		t.Errorf("minSamplesFor(0.9, 10) = %d, want 100", got)
	}
	if got := engineInfer.minRounds; got != 100 {
		t.Errorf("engine-infer runs at least %d rounds, want 100 (one op per class per round)", got)
	}
	if got := serveMixed.minRounds * searchesPerRound(); got < 100 {
		t.Errorf("serve-mixed's search class gets %d samples at the minimum round count, want >= 100", got)
	}
}

func TestClassQuantileGeomean(t *testing.T) {
	byClass := map[string][]float64{
		"small": {1, 2, 3},
		"large": {10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
	}
	if got, want := classQuantileGeomean(byClass, 0.5), math.Sqrt(2*55); math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 geomean = %v, want %v", got, want)
	}
	if got, want := classQuantileGeomean(byClass, 0.9), math.Sqrt(3*90); math.Abs(got-want) > 1e-12 {
		t.Errorf("p90 geomean = %v, want %v", got, want)
	}
	if !math.IsNaN(geomean(nil)) || !math.IsNaN(geomean([]float64{1, 0})) {
		t.Error("geomean of an empty or non-positive set must be NaN")
	}
}
