package main

import (
	"math"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/wire"
)

func TestSupportedQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		n    int
		want float64
	}{
		{0.99, 1000, 0.99}, // exactly ten beyond p99
		{0.99, 6000, 0.99}, // plenty
		{0.99, 500, 0.98},  // p99 unsupported: ten beyond p98
		{0.999, 6000, 1 - 10.0/6000},
		{0.5, 40, 0.5},
		{0.99, 10, 0}, // no tail at all
	} {
		if got := supportedQuantile(tc.q, tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("supportedQuantile(%v, %d) = %v, want %v", tc.q, tc.n, got, tc.want)
		}
	}
	// Whatever the sample size, the reported tail leaves at least ten
	// samples strictly above it.
	for n := 11; n <= 3000; n += 7 {
		var d dist
		for i := n; i > 0; i-- {
			d.add(float64(i))
		}
		v := d.q(0.99)
		beyond := 0
		for _, x := range d.v {
			if x > v {
				beyond++
			}
		}
		if beyond < minTail {
			t.Fatalf("n=%d: reported %v with %d samples beyond", n, v, beyond)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0: 1, 0.5: 5, 0.51: 6, 0.9: 9, 1: 10} {
		if got := quantile(sorted, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestGoodClassifier(t *testing.T) {
	const limit = 50.0
	for _, tc := range []struct {
		name string
		o    outcome
		want bool
	}{
		{"unanswered", outcome{latencyMs: 1, class: wire.SLOBestEffort, acc: 1}, false},
		{"late", outcome{answered: true, latencyMs: 50.1, class: wire.SLOBestEffort, acc: 1}, false},
		{"at the limit", outcome{answered: true, latencyMs: 50, class: wire.SLOBestEffort, acc: 1}, true},
		{"exact bit-identical", outcome{answered: true, latencyMs: 5, class: wire.SLOExact, exact: true}, true},
		{"exact differs", outcome{answered: true, latencyMs: 5, class: wire.SLOExact, acc: 0.999}, false},
		{"bounded above floor", outcome{answered: true, latencyMs: 5, class: wire.SLOBounded, minAcc: 0.9, acc: 0.9}, true},
		{"bounded below floor", outcome{answered: true, latencyMs: 5, class: wire.SLOBounded, minAcc: 0.9, acc: 0.899}, false},
		{"best effort at floor", outcome{answered: true, latencyMs: 5, class: wire.SLOBestEffort, acc: 0.5}, true},
		{"best effort below floor", outcome{answered: true, latencyMs: 5, class: wire.SLOBestEffort, acc: 0.49}, false},
		{"class-less uses the best-effort floor", outcome{answered: true, latencyMs: 5, class: wire.SLONone, acc: 0.6}, true},
	} {
		if got := good(tc.o, limit); got != tc.want {
			t.Errorf("%s: good = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestAggAccuracyAgainstKnownExact(t *testing.T) {
	exact := &wire.AggResult{Sum: []float64{10, 20}, Cnt: []float64{2, 4}, SumVar: []float64{0, 0}, CntVar: []float64{0, 0}}
	if acc, ok := aggAccuracy(exact, exact, agg.Sum); !ok || acc != 1 {
		t.Fatalf("exact against itself: %v %v", acc, ok)
	}
	approx := &wire.AggResult{Sum: []float64{11, 20}, Cnt: []float64{2, 5}, SumVar: []float64{1, 0}, CntVar: []float64{0, 1}}
	// SUM: relative errors 0.1 and 0, mean 0.05.
	if acc, _ := aggAccuracy(approx, exact, agg.Sum); math.Abs(acc-0.95) > 1e-12 {
		t.Errorf("SUM accuracy = %v, want 0.95", acc)
	}
	// COUNT: relative errors 0 and 0.25, mean 0.125.
	if acc, _ := aggAccuracy(approx, exact, agg.Count); math.Abs(acc-0.875) > 1e-12 {
		t.Errorf("COUNT accuracy = %v, want 0.875", acc)
	}
	if _, ok := aggAccuracy(&wire.AggResult{}, exact, agg.Sum); ok {
		t.Error("an empty answer scored as well-formed")
	}
}

func TestCFAccuracyAgainstKnownExact(t *testing.T) {
	exact := &wire.CFResult{Num: []float64{1, 2}, Den: []float64{1, 1}} // predictions 4, 5 at mean 3
	if acc, ok := cfAccuracy(exact, exact, 3); !ok || acc != 1 {
		t.Fatalf("exact against itself: %v %v", acc, ok)
	}
	approx := &wire.CFResult{Num: []float64{3, 2}, Den: []float64{1, 1}} // predictions 6, 5
	want := 1 - math.Sqrt(2)/cfRatingRange                               // RMSE sqrt((4+0)/2)
	if acc, _ := cfAccuracy(approx, exact, 3); math.Abs(acc-want) > 1e-12 {
		t.Errorf("accuracy = %v, want %v", acc, want)
	}
	if _, ok := cfAccuracy(&wire.CFResult{Num: []float64{1}, Den: []float64{1}}, exact, 3); ok {
		t.Error("a mis-shaped answer scored as well-formed")
	}
}

func TestSameBitsIsBitwise(t *testing.T) {
	if !sameBits([]float64{1, math.NaN()}, []float64{1, math.NaN()}) {
		t.Error("identical NaN bits compared unequal")
	}
	if sameBits([]float64{0}, []float64{math.Copysign(0, -1)}) {
		t.Error("+0 and -0 compared bit-identical")
	}
	if sameBits([]float64{1}, []float64{1, 2}) {
		t.Error("different lengths compared equal")
	}
}

func TestPoissonScheduleIsSeededSortedAndCounted(t *testing.T) {
	w := workloads[0]
	a, b := w.readSchedule(7, 2*time.Second), w.readSchedule(7, 2*time.Second)
	if len(a) != int(w.rate*2) {
		t.Fatalf("%d arrivals, want %v", len(a), w.rate*2)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between two draws of one seed", i)
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if a[i].due < 0 || a[i].due >= 2*time.Second || a[i].tmpl < 0 || a[i].tmpl >= w.templates {
			t.Fatalf("arrival %d out of range: %+v", i, a[i])
		}
	}
	if c := w.readSchedule(8, 2*time.Second); c[0] == a[0] && c[1] == a[1] {
		t.Error("two seeds drew the same schedule")
	}
}
