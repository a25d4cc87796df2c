package main

import (
	"math"
	"sort"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/cf"
	"accuracytrader/internal/wire"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail figure is reported only where at least this many
// observations support it.
const minTail = 10

// supportedQuantile caps the wanted quantile q at the highest quantile
// that still has minTail samples beyond it among n samples, 1 - minTail/n.
// It returns 0 (the minimum) when n is too small to support any tail.
func supportedQuantile(q float64, n int) float64 {
	if n <= minTail {
		return 0
	}
	hi := 1 - float64(minTail)/float64(n)
	if q > hi {
		return hi
	}
	return q
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1 // tolerate q*n rounding up
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// dist is a sample of one measured quantity.
type dist struct{ v []float64 }

func (d *dist) add(x float64) { d.v = append(d.v, x) }
func (d *dist) n() int        { return len(d.v) }

// q returns the wanted quantile, capped by the percentile rule.
func (d *dist) q(want float64) float64 {
	sort.Float64s(d.v)
	return quantile(d.v, supportedQuantile(want, len(d.v)))
}

func (d *dist) max() float64 {
	m := 0.0
	for _, x := range d.v {
		if x > m {
			m = x
		}
	}
	return m
}

func (d *dist) mean() float64 {
	if len(d.v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d.v {
		s += x
	}
	return s / float64(len(d.v))
}

// Goodput floors: Bounded requests carry their own floor; BestEffort
// (and class-less) answers must reach this accuracy to count as good.
const goodAccuracyFloor = 0.5

// outcome is one request as the client saw it.
type outcome struct {
	answered  bool    // ReplyOK or ReplyDegraded
	latencyMs float64 // from the scheduled send time to the reply
	class     uint8   // requested wire SLO class
	minAcc    float64 // requested Bounded floor
	// exact reports a bit-identical Exact-class answer; acc is the
	// realized (or, where ground truth moves, claimed) accuracy of an
	// approximate one.
	exact bool
	acc   float64
}

// good classifies an outcome for goodput: answered within the latency
// limit, and meeting the requested class's accuracy floor.
func good(o outcome, limitMs float64) bool {
	if !o.answered || o.latencyMs > limitMs {
		return false
	}
	switch o.class {
	case wire.SLOExact:
		return o.exact
	case wire.SLOBounded:
		return o.acc >= o.minAcc
	default:
		return o.acc >= goodAccuracyFloor
	}
}

// aggAccuracy scores a composed aggregation answer against the exact
// composition: agg.Accuracy over the per-key estimates of the query's
// aggregate. ok is false when the answer's shape does not match.
func aggAccuracy(got, exact *wire.AggResult, op agg.Op) (acc float64, ok bool) {
	if got == nil || len(got.Sum) != len(exact.Sum) || len(got.Cnt) != len(exact.Cnt) {
		return 0, false
	}
	return agg.Accuracy(aggResult(got).Estimates(op), aggResult(exact).Estimates(op)), true
}

func aggResult(r *wire.AggResult) agg.Result {
	return agg.Result{Sum: r.Sum, Cnt: r.Cnt, SumVar: r.SumVar, CntVar: r.CntVar}
}

// cfRatingRange is the span of the rating scale (1 to 5) that
// normalizes CF prediction error.
const cfRatingRange = 4.0

// cfAccuracy scores a composed CF answer against the exact composition
// as 1 - RMSE/range over the predicted ratings, floored at 0. ok is
// false when the answer's shape does not match.
func cfAccuracy(got, exact *wire.CFResult, activeMean float64) (acc float64, ok bool) {
	if got == nil || len(got.Num) != len(exact.Num) || len(got.Den) != len(exact.Den) {
		return 0, false
	}
	if len(got.Num) == 0 {
		return 1, true
	}
	preds := cf.Result{Num: got.Num, Den: got.Den}.Predictions(activeMean)
	want := cf.Result{Num: exact.Num, Den: exact.Den}.Predictions(activeMean)
	return math.Max(1-cf.RMSE(preds, want)/cfRatingRange, 0), true
}

// sameBits reports whether two float slices are bit-for-bit identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameAgg(a, b *wire.AggResult) bool {
	return a != nil && b != nil && sameBits(a.Sum, b.Sum) && sameBits(a.Cnt, b.Cnt) &&
		sameBits(a.SumVar, b.SumVar) && sameBits(a.CntVar, b.CntVar)
}

func sameCF(a, b *wire.CFResult) bool {
	return a != nil && b != nil && sameBits(a.Num, b.Num) && sameBits(a.Den, b.Den)
}
