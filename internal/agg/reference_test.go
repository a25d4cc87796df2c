package agg

// Reference (naive) implementations of the aggregation engine, retained
// as test-only helpers: the property tests assert the pooled,
// buffer-reusing engine — branch-free selection, exact scans resumed
// past the sampled prefix — is bit-identical to simple allocation-heavy
// semantics that filter with a plain branch and scan every stratum from
// its first row, on randomized tables and on tables of special values,
// so the fast path cannot silently diverge.

import (
	"fmt"
	"math"
	"testing"

	"accuracytrader/internal/stats"
)

// naiveAnswer is the reference result: per-key maps instead of dense
// arrays, freshly allocated per query.
type naiveAnswer struct {
	sum, cnt, sumVar, cntVar map[int]float64
}

func newNaiveAnswer() *naiveAnswer {
	return &naiveAnswer{
		sum:    map[int]float64{},
		cnt:    map[int]float64{},
		sumVar: map[int]float64{},
		cntVar: map[int]float64{},
	}
}

// naiveStratum computes one stratum's sample estimate with the plain
// textbook formulas, mirroring the optimized kernel's operation order
// so accumulators stay bit-identical.
func (na *naiveAnswer) naiveStratum(t *Table, q Query, sample []int32, N float64, key int) {
	n := float64(len(sample))
	sy, syy, sb := 0.0, 0.0, 0.0
	for _, row := range sample {
		v := t.Value(int(row))
		if q.Lo <= v && v < q.Hi {
			sy += v
			syy += v * v
			sb++
		}
	}
	scale := N / n
	na.sum[key] = scale * sy
	na.cnt[key] = scale * sb
	if n >= N {
		na.sumVar[key] = 0
		na.cntVar[key] = 0
		return
	}
	fpc := 1 - n/N
	s2y := (syy - sy*sy/n) / (n - 1)
	if s2y < 0 {
		s2y = 0
	}
	s2b := (sb - sb*sb/n) / (n - 1)
	if s2b < 0 {
		s2b = 0
	}
	na.sumVar[key] = N * N * s2y / n * fpc
	na.cntVar[key] = N * N * s2b / n * fpc
}

// naiveExactStratum replaces one stratum with its exact scan.
func (na *naiveAnswer) naiveExactStratum(t *Table, q Query, rows []int32, key int) {
	sum, cnt := 0.0, 0.0
	for _, row := range rows {
		v := t.Value(int(row))
		if q.Lo <= v && v < q.Hi {
			sum += v
			cnt++
		}
	}
	na.sum[key] = sum
	na.cnt[key] = cnt
	na.sumVar[key] = 0
	na.cntVar[key] = 0
}

// naiveSynopsisAnswer runs the synopsis stage of Algorithm 1 naively.
func naiveSynopsisAnswer(c *Component, q Query, level int) *naiveAnswer {
	na := newNaiveAnswer()
	for g := 0; g < c.Syn.NumStrata(); g++ {
		N := float64(c.Syn.StratumSize(g))
		if N == 0 {
			continue
		}
		na.naiveStratum(c.T, q, c.Syn.sample(level, g), N, g)
	}
	return na
}

// sameBits reports whether a and b have the same bit pattern, so that
// −0.0 against +0.0 and differing NaNs count as differences.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameResult reports whether two results are bit-identical.
func sameResult(a, b Result) bool {
	if len(a.Sum) != len(b.Sum) {
		return false
	}
	for k := range a.Sum {
		if !sameBits(a.Sum[k], b.Sum[k]) || !sameBits(a.Cnt[k], b.Cnt[k]) ||
			!sameBits(a.SumVar[k], b.SumVar[k]) || !sameBits(a.CntVar[k], b.CntVar[k]) {
			return false
		}
	}
	return true
}

// checkAgainstNaive asserts the engine result equals the naive maps
// bit for bit.
func checkAgainstNaive(t *testing.T, res Result, na *naiveAnswer, ctx string) {
	t.Helper()
	for k := range res.Sum {
		if !sameBits(res.Sum[k], na.sum[k]) || !sameBits(res.Cnt[k], na.cnt[k]) ||
			!sameBits(res.SumVar[k], na.sumVar[k]) || !sameBits(res.CntVar[k], na.cntVar[k]) {
			t.Fatalf("%s: key %d got (%v,%v,%v,%v) want (%v,%v,%v,%v)", ctx, k,
				res.Sum[k], res.Cnt[k], res.SumVar[k], res.CntVar[k],
				na.sum[k], na.cnt[k], na.sumVar[k], na.cntVar[k])
		}
	}
}

// randomTable builds a Zipf-skewed fact table: most rows land on a few
// hot keys, some keys stay rare or empty.
func randomTable(rng *stats.RNG, keys, rows int) *Table {
	t := NewTable(keys)
	z := stats.NewZipf(rng, keys, 1.1)
	for i := 0; i < rows; i++ {
		t.Append(int32(z.Draw()), rng.LogNormal(1, 0.7))
	}
	return t
}

// randomQuery draws an op and a value window of moderate selectivity.
func randomQuery(rng *stats.RNG) Query {
	lo := rng.LogNormal(0.2, 0.5)
	return Query{
		Op: Op(rng.Intn(3)),
		Lo: lo,
		Hi: lo + rng.LogNormal(1.5, 0.5),
	}
}

// checkEngineAgainstNaive runs Algorithm 1 on a pooled engine at one
// ladder level — the synopsis pass, then every set in ranked order,
// the first of them twice — and pins the result and the correlations
// to the naive reference bit for bit after every step.
func checkEngineAgainstNaive(t *testing.T, c *Component, q Query, level int, ctx string) {
	t.Helper()
	e := GetEngine(c, q, level)
	defer e.Release()
	corr := e.ProcessSynopsis()
	na := naiveSynopsisAnswer(c, q, level)
	checkAgainstNaive(t, e.Result(), na, ctx+" synopsis")
	// Correlations must equal the naive per-stratum bounds.
	for g := range corr {
		want := 0.0
		if c.Syn.StratumSize(g) > 0 {
			want = naiveBound(na, q.Op, g)
		}
		if !sameBits(corr[g], want) {
			t.Fatalf("%s: corr[%d] = %v, naive %v", ctx, g, corr[g], want)
		}
	}
	// Improve sets in ranked order, checking after each.
	for i, g := range rankDesc(corr) {
		e.ProcessSet(g)
		na.naiveExactStratum(c.T, q, c.Syn.stratumRows(g), g)
		checkAgainstNaive(t, e.Result(), na, fmt.Sprintf("%s after set %d", ctx, i))
		if i == 0 {
			e.ProcessSet(g) // a repeat must leave the stratum as it is
			checkAgainstNaive(t, e.Result(), na, ctx+" after repeating the first set")
		}
	}
}

// TestEngineMatchesNaiveReference pins the pooled engine bit-identical
// to the naive reference on randomized seeds, at every ladder level:
// after ProcessSynopsis and after each ranked ProcessSet improvement.
func TestEngineMatchesNaiveReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := stats.NewRNG(seed)
		tab := randomTable(rng, 5+rng.Intn(16), 200+rng.Intn(600))
		c, err := BuildComponent(tab, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			q := randomQuery(rng)
			for level := 0; level < c.Syn.Levels(); level++ {
				checkEngineAgainstNaive(t, c, q, level,
					fmt.Sprintf("seed %d trial %d level %d", seed, trial, level))
			}
		}
	}
}

// specialEdges are finite filter-window bounds that also occur as row
// values in specialComponents' tables.
var specialEdges = []float64{-1.5, 0.5, 2}

// specialComponents builds components whose rows hold the values on
// which a branch-free filter could drift from the plain predicate —
// NaN, ±Inf, −0.0 and +0.0, and the window edges themselves — beside
// ordinary values of both signs. Keys are Zipf-skewed over the low
// strata; the next one holds two rows, so the MinSample floor samples
// it fully (n == N); the top two stay empty. One config also samples
// every stratum fully at its finest level.
func specialComponents(t *testing.T) []*Component {
	t.Helper()
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	var comps []*Component
	for seed := uint64(1); seed <= 3; seed++ {
		rng := stats.NewRNG(seed ^ 0x5bec)
		const keys = 10
		tab := NewTable(keys)
		z := stats.NewZipf(rng, keys-3, 1.3)
		for i := 0; i < 300; i++ {
			var v float64
			switch rng.Intn(4) {
			case 0:
				v = specials[rng.Intn(len(specials))]
			case 1:
				v = specialEdges[rng.Intn(len(specialEdges))]
			default:
				v = rng.Norm(0, 2)
			}
			key := int32(z.Draw())
			if i < 2 {
				key = keys - 3 // a two-row stratum, below every sample floor
			}
			tab.Append(key, v)
		}
		for _, cfg := range []Config{{Seed: seed}, {Rates: []float64{0.1, 0.5, 1}, MinSample: 2, Seed: seed}} {
			c, err := BuildComponent(tab, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var empty, full, partial int
			for g := 0; g < c.Syn.NumStrata(); g++ {
				switch N, n := c.Syn.StratumSize(g), c.Syn.SampleLen(0, g); {
				case N == 0:
					empty++
				case n == N:
					full++
				default:
					partial++
				}
			}
			if empty == 0 || full == 0 || partial == 0 {
				t.Fatalf("seed %d: %d empty, %d fully and %d partly sampled strata at level 0, want each",
					seed, empty, full, partial)
			}
			comps = append(comps, c)
		}
	}
	return comps
}

// TestEngineMatchesNaiveOnSpecialValues pins the engine to the naive
// reference on tables of special values, for every op, every ladder
// level and every window drawn from finite edges and infinite bounds
// (including empty and inverted windows). It also pins the engine's
// exact answer and Select itself to the plain predicate.
func TestEngineMatchesNaiveOnSpecialValues(t *testing.T) {
	bounds := append([]float64{math.Inf(-1), math.Copysign(0, -1), math.Inf(1)}, specialEdges...)
	for ci, c := range specialComponents(t) {
		for _, lo := range bounds {
			for _, hi := range bounds {
				for op := Sum; op <= Avg; op++ {
					q := Query{Op: op, Lo: lo, Hi: hi}
					for level := 0; level < c.Syn.Levels(); level++ {
						checkEngineAgainstNaive(t, c, q, level,
							fmt.Sprintf("comp %d %v [%v,%v) level %d", ci, op, lo, hi, level))
					}
				}
				q := Query{Lo: lo, Hi: hi}
				na := newNaiveAnswer()
				for g := 0; g < c.Syn.NumStrata(); g++ {
					na.naiveExactStratum(c.T, q, c.Syn.stratumRows(g), g)
				}
				checkAgainstNaive(t, ExactResult(c, q), na, fmt.Sprintf("comp %d exact [%v,%v)", ci, lo, hi))
				for i := 0; i < c.T.NumRows(); i++ {
					v := c.T.Value(i)
					x, k := q.Select(v)
					if keep := lo <= v && v < hi; keep != (k == 1) || (keep && !sameBits(x, v)) ||
						(!keep && (k != 0 || !sameBits(x, 0))) {
						t.Fatalf("[%v,%v).Select(%v) = (%v, %d)", lo, hi, v, x, k)
					}
				}
			}
		}
	}
}

// TestProcessSetWithoutSynopsis checks that a ProcessSet with no
// synopsis pass before it scans the stratum from its first row, also on
// a pooled engine whose previous query did run the synopsis pass, and
// that repeating it changes nothing.
func TestProcessSetWithoutSynopsis(t *testing.T) {
	c := specialComponents(t)[0]
	rng := stats.NewRNG(17)
	e := GetEngine(c, Query{}, 0)
	defer e.Release()
	for trial := 0; trial < 20; trial++ {
		level := trial % c.Syn.Levels()
		// A synopsis pass for another query leaves its prefix sums
		// behind; Reset must not let the next query resume from them.
		e.Reset(c, Query{Op: Sum, Lo: math.Inf(-1), Hi: math.Inf(1)}, level)
		e.ProcessSynopsis()
		q := Query{Op: Op(rng.Intn(3)), Lo: rng.Norm(-1, 1), Hi: rng.Norm(1, 1)}
		e.Reset(c, q, level)
		na := newNaiveAnswer()
		for g := c.Syn.NumStrata() - 1; g >= 0; g-- {
			e.ProcessSet(g)
			na.naiveExactStratum(c.T, q, c.Syn.stratumRows(g), g)
			checkAgainstNaive(t, e.Result(), na, fmt.Sprintf("trial %d set %d", trial, g))
			e.ProcessSet(g)
			checkAgainstNaive(t, e.Result(), na, fmt.Sprintf("trial %d set %d repeated", trial, g))
		}
		if !sameResult(e.Result(), ExactResult(c, q)) {
			t.Fatalf("trial %d: every set improved without a synopsis pass diverges from ExactResult", trial)
		}
	}
}

// naiveBound mirrors Result.Bound over the naive maps.
func naiveBound(na *naiveAnswer, op Op, k int) float64 {
	switch op {
	case Sum:
		return zCI * math.Sqrt(na.sumVar[k])
	case Count:
		return zCI * math.Sqrt(na.cntVar[k])
	default:
		if na.cnt[k] <= 0 {
			return 0
		}
		est := na.sum[k] / na.cnt[k]
		return (zCI*math.Sqrt(na.sumVar[k]) + math.Abs(est)*zCI*math.Sqrt(na.cntVar[k])) / na.cnt[k]
	}
}

// rankDesc is a simple descending-correlation ordering (ties toward the
// lower id), independent of core.Rank.
func rankDesc(corr []float64) []int {
	ids := make([]int, len(corr))
	for i := range ids {
		ids[i] = i
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if corr[ids[j]] > corr[ids[i]] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	return ids
}

// TestEngineResetReuseMatchesFresh checks a pooled/reset engine
// produces bit-identical results to a fresh engine across varying
// queries and levels.
func TestEngineResetReuseMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(31)
	tab := randomTable(rng, 12, 500)
	c, err := BuildComponent(tab, Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	reused := GetEngine(c, Query{}, 0)
	defer reused.Release()
	for trial := 0; trial < 15; trial++ {
		q := randomQuery(rng)
		level := rng.Intn(c.Syn.Levels())
		fresh := NewEngine(c, q, level)
		reused.Reset(c, q, level)
		fresh.ProcessSynopsis()
		reused.ProcessSynopsis()
		for g := 0; g < c.Syn.NumStrata(); g += 2 {
			fresh.ProcessSet(g)
			reused.ProcessSet(g)
		}
		if !sameResult(fresh.res, reused.res) {
			t.Fatalf("trial %d: reused diverges from fresh", trial)
		}
	}
}

// TestFullyImprovedMatchesExact checks that processing every set turns
// the approximate result into the exact one, bit for bit.
func TestFullyImprovedMatchesExact(t *testing.T) {
	rng := stats.NewRNG(7)
	tab := randomTable(rng, 10, 400)
	c, err := BuildComponent(tab, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var reused Result
	for trial := 0; trial < 10; trial++ {
		q := randomQuery(rng)
		e := NewEngine(c, q, 0)
		e.ProcessSynopsis()
		for g := 0; g < c.Syn.NumStrata(); g++ {
			e.ProcessSet(g)
		}
		want := ExactResult(c, q)
		reused = ExactResultInto(reused, c, q)
		// Exact results carry +0.0 variances, so sameResult also pins
		// the improved variances to zero.
		if !sameResult(e.res, want) {
			t.Fatalf("trial %d: fully improved result diverges from ExactResult", trial)
		}
		if !sameResult(reused, want) {
			t.Fatalf("trial %d: ExactResultInto diverges from ExactResult", trial)
		}
	}
}
