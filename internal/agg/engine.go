package agg

import (
	"math"
	"sync"
)

// Op selects the aggregate of a Query.
type Op int

// The supported per-group aggregates.
const (
	Sum Op = iota
	Count
	Avg
)

// String returns the SQL-ish name of the aggregate.
func (o Op) String() string {
	switch o {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	default:
		return "AVG"
	}
}

// Query is one aggregation request: Op(value) GROUP BY key over the
// rows whose value falls in the half-open filter window [Lo, Hi) —
// the WHERE clause that makes every estimate genuinely sample-based.
type Query struct {
	Op     Op
	Lo, Hi float64
}

// Select is the query's row filter in branch-free form: it returns
// (v, 1) when the window [Lo, Hi) keeps v and (+0.0, 0) when it does
// not; NaN is never kept. Every scan over rows — the engine's kernels
// and the live delta fold — accumulates both results unconditionally.
// That is bit-identical to adding only the kept rows, because such a
// sum starts at +0.0 and so never holds −0.0 (round-to-nearest yields
// −0.0 only for (−0.0)+(−0.0)), and x + (+0.0) == x for every other x.
func (q Query) Select(v float64) (float64, int) {
	keep := b2u(q.Lo <= v) & b2u(v < q.Hi)
	return math.Float64frombits(math.Float64bits(v) & -keep), int(keep)
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a
// flag-setting instruction, so a comparison costs no branch.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// zCI is the 95% normal quantile used for the CLT confidence bounds.
const zCI = 1.96

// Result is a component's partial answer: per group key, the estimated
// filtered SUM and COUNT plus the variances of those estimators.
// Partial results from many components merge by addition (sums and
// counts add; variances add because shards are sampled independently),
// so the composer combines exact, approximate and skipped components
// uniformly — the same merge contract as cf.Result.
type Result struct {
	Sum    []float64
	Cnt    []float64
	SumVar []float64
	CntVar []float64
}

// NewResult returns a zeroed result over n group keys.
func NewResult(n int) Result {
	return Result{
		Sum:    make([]float64, n),
		Cnt:    make([]float64, n),
		SumVar: make([]float64, n),
		CntVar: make([]float64, n),
	}
}

// Reset re-zeroes the result for n keys, reusing the buffers when
// capacity allows, and returns the (possibly re-anchored) result.
func (r Result) Reset(n int) Result {
	if cap(r.Sum) < n {
		return NewResult(n)
	}
	r.Sum, r.Cnt = r.Sum[:n], r.Cnt[:n]
	r.SumVar, r.CntVar = r.SumVar[:n], r.CntVar[:n]
	clear(r.Sum)
	clear(r.Cnt)
	clear(r.SumVar)
	clear(r.CntVar)
	return r
}

// Merge adds other into r. Both results must cover the same key
// domain; merging shards built over different NumKeys is a caller bug
// surfaced here instead of as silently dropped keys.
func (r Result) Merge(other Result) {
	if len(r.Sum) != len(other.Sum) {
		panic("agg: Merge key-domain mismatch")
	}
	for i := range r.Sum {
		r.Sum[i] += other.Sum[i]
		r.Cnt[i] += other.Cnt[i]
		r.SumVar[i] += other.SumVar[i]
		r.CntVar[i] += other.CntVar[i]
	}
}

// Estimate returns the point estimate of op for group key k. AVG of an
// empty group is 0 (both for exact and approximate answers, so the two
// stay comparable).
func (r Result) Estimate(op Op, k int) float64 {
	switch op {
	case Sum:
		return r.Sum[k]
	case Count:
		return r.Cnt[k]
	default:
		if r.Cnt[k] <= 0 {
			return 0
		}
		return r.Sum[k] / r.Cnt[k]
	}
}

// Bound returns the 95% CLT confidence half-width of the op estimate
// for group key k. SUM and COUNT bounds are exact normal-approximation
// half-widths; the AVG bound is the first-order (delta-method,
// triangle-inequality) linearization
//
//	(z·σ_sum + |avg|·z·σ_cnt) / count,
//
// which is conservative. Exactly processed strata have zero variance,
// so bounds shrink as Algorithm 1 improves the result.
func (r Result) Bound(op Op, k int) float64 {
	switch op {
	case Sum:
		return zCI * math.Sqrt(r.SumVar[k])
	case Count:
		return zCI * math.Sqrt(r.CntVar[k])
	default:
		if r.Cnt[k] <= 0 {
			return 0
		}
		est := r.Sum[k] / r.Cnt[k]
		return (zCI*math.Sqrt(r.SumVar[k]) + math.Abs(est)*zCI*math.Sqrt(r.CntVar[k])) / r.Cnt[k]
	}
}

// Estimates returns the per-key point estimates of op. The slice is
// freshly allocated; hot paths should use EstimatesInto.
func (r Result) Estimates(op Op) []float64 { return r.EstimatesInto(nil, op) }

// EstimatesInto writes the per-key estimates into dst (reused when
// capacity allows, truncated first) and returns it.
func (r Result) EstimatesInto(dst []float64, op Op) []float64 {
	dst = dst[:0]
	for k := range r.Sum {
		dst = append(dst, r.Estimate(op, k))
	}
	return dst
}

// Bounds returns the per-key 95% confidence half-widths of op. The
// slice is freshly allocated; hot paths should use BoundsInto.
func (r Result) Bounds(op Op) []float64 { return r.BoundsInto(nil, op) }

// BoundsInto writes the per-key confidence half-widths into dst (reused
// when capacity allows, truncated first) and returns it.
func (r Result) BoundsInto(dst []float64, op Op) []float64 {
	dst = dst[:0]
	for k := range r.Sum {
		dst = append(dst, r.Bound(op, k))
	}
	return dst
}

// Engine runs Algorithm 1 for one aggregation query on one component.
// It implements core.Engine: ProcessSynopsis estimates every stratum
// from its ladder-level sample and returns the per-stratum error
// contributions as correlations; ProcessSet replaces one stratum's
// estimate with an exact scan of its rows.
//
// A stratum's sample is the prefix of its rows in stored order, so the
// exact scan resumes where the sample scan stopped: preSum and preCnt
// hold the selected sum and count over each stratum's sampled prefix,
// valid once sampled is set.
type Engine struct {
	Comp  *Component
	Q     Query
	Level int // ladder level served (coarse 0 … Levels-1)

	res     Result
	corr    []float64
	done    []bool
	preSum  []float64
	preCnt  []int
	sampled bool
}

// NewEngine prepares an engine for a query at a ladder level.
func NewEngine(c *Component, q Query, level int) *Engine {
	e := &Engine{}
	e.Reset(c, q, level)
	return e
}

// Reset re-targets the engine at a component, query and ladder level,
// reusing all internal buffers. It makes engines poolable across
// requests.
func (e *Engine) Reset(c *Component, q Query, level int) {
	e.Comp, e.Q = c, q
	e.Level = c.Syn.clampLevel(level)
	e.res = e.res.Reset(c.T.NumKeys())
	n := c.Syn.NumStrata()
	if cap(e.corr) < n {
		e.corr = make([]float64, n)
		e.done = make([]bool, n)
		e.preSum = make([]float64, n)
		e.preCnt = make([]int, n)
	} else {
		e.corr = e.corr[:n]
		e.done = e.done[:n]
		e.preSum = e.preSum[:n]
		e.preCnt = e.preCnt[:n]
		clear(e.done)
	}
	e.sampled = false
}

// enginePool recycles Engines across requests (see GetEngine).
var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// GetEngine returns a pooled engine reset for the query. Release it
// with Engine.Release when the request is finished.
func GetEngine(c *Component, q Query, level int) *Engine {
	e := enginePool.Get().(*Engine)
	e.Reset(c, q, level)
	return e
}

// Release returns the engine to the pool. The engine, its Result and
// any slice obtained from ProcessSynopsis must not be used afterwards.
func (e *Engine) Release() {
	e.Comp = nil
	e.Q = Query{}
	enginePool.Put(e)
}

// ProcessSynopsis estimates every stratum from its ladder-level sample
// (Horvitz-Thompson scaling N/n with finite-population-corrected CLT
// variances) and returns the per-stratum error contributions — the
// requested aggregate's CI half-width — as the correlation estimates.
// The returned slice is owned by the engine and valid until the next
// Reset or Release.
func (e *Engine) ProcessSynopsis() []float64 {
	syn := e.Comp.Syn
	for g := 0; g < syn.NumStrata(); g++ {
		sample := syn.sample(e.Level, g)
		sy, syy, sb := sampleMoments(e.Comp.T.vals, e.Q, sample)
		e.preSum[g], e.preCnt[g] = sy, sb
		N := float64(syn.StratumSize(g))
		if N == 0 {
			e.corr[g] = 0
			continue
		}
		sum, cnt, sumVar, cntVar := stratumEstimate(sy, syy, float64(sb), float64(len(sample)), N)
		e.res.Sum[g] = sum
		e.res.Cnt[g] = cnt
		e.res.SumVar[g] = sumVar
		e.res.CntVar[g] = cntVar
		e.corr[g] = e.res.Bound(e.Q.Op, g)
	}
	e.sampled = true
	return e.corr
}

// sampleMoments scans a stratum's sampled rows: the selected values'
// sum and sum of squares, and the selected-row count.
func sampleMoments(vals []float64, q Query, sample []int32) (sy, syy float64, sb int) {
	for _, row := range sample {
		x, k := q.Select(vals[row])
		sy += x
		syy += x * x
		sb += k
	}
	return sy, syy, sb
}

// stratumEstimate computes one stratum's scaled SUM/COUNT estimates and
// estimator variances from its sample moments over n of its N rows. A
// fully sampled stratum (n == N) is exact: scale 1, variance 0. For
// n < N the variances use the standard stratified-sampling form
// N²·s²/n·(1−n/N) with the (n−1)-denominator sample variance; n ≥ 2
// whenever n < N because the per-stratum sample floor is at least 2.
func stratumEstimate(sy, syy, sb, n, N float64) (sum, cnt, sumVar, cntVar float64) {
	scale := N / n
	sum = scale * sy
	cnt = scale * sb
	if n >= N {
		return sum, cnt, 0, 0
	}
	fpc := 1 - n/N
	s2y := (syy - sy*sy/n) / (n - 1)
	if s2y < 0 { // float cancellation on near-constant samples
		s2y = 0
	}
	s2b := (sb - sb*sb/n) / (n - 1)
	if s2b < 0 {
		s2b = 0
	}
	sumVar = N * N * s2y / n * fpc
	cntVar = N * N * s2b / n * fpc
	return sum, cnt, sumVar, cntVar
}

// ProcessSet improves the result with stratum g's original rows: the
// sample-based estimate is replaced by an exact scan (Algorithm 1 line
// 7). Strata map 1:1 onto group keys, so replacement is exact — no
// floating-point retraction residue. After ProcessSynopsis the scan
// resumes past the sampled prefix from its selected sum and count:
// the same additions in the same order as a scan from row 0.
func (e *Engine) ProcessSet(g int) {
	if e.done[g] {
		return
	}
	e.done[g] = true
	rows := e.Comp.Syn.stratumRows(g)
	var sum float64
	var cnt int
	if e.sampled {
		rows = rows[e.Comp.Syn.SampleLen(e.Level, g):]
		sum, cnt = e.preSum[g], e.preCnt[g]
	}
	sum, cnt = exactStratum(e.Comp.T.vals, e.Q, rows, sum, cnt)
	e.res.Sum[g] = sum
	e.res.Cnt[g] = float64(cnt)
	e.res.SumVar[g] = 0
	e.res.CntVar[g] = 0
}

// exactStratum continues an exact scan over rows from the selected sum
// and count of the rows scanned before them.
func exactStratum(vals []float64, q Query, rows []int32, sum float64, cnt int) (float64, int) {
	for _, row := range rows {
		x, k := q.Select(vals[row])
		sum += x
		cnt += k
	}
	return sum, cnt
}

// Result returns the current partial result. It aliases the engine's
// accumulators: for a pooled engine, copy it or use TakeResult before
// Release.
func (e *Engine) Result() Result { return e.res }

// TakeResult returns the current partial result and detaches it from
// the engine, so it stays valid after Release.
func (e *Engine) TakeResult() Result {
	r := e.res
	e.res = Result{}
	return r
}

// ExactResult computes the component's exact partial answer: every row
// is scanned — the paper's "full computation over the entire input
// data" baseline. Scanning goes stratum by stratum in the synopsis's
// stored row order, so fully improving an engine yields bit-identical
// accumulators.
func ExactResult(c *Component, q Query) Result {
	return ExactResultInto(Result{}, c, q)
}

// ExactResultInto is ExactResult accumulating into res's reused buffers
// (re-zeroed first); it returns the (possibly re-anchored) result.
func ExactResultInto(res Result, c *Component, q Query) Result {
	res = res.Reset(c.T.NumKeys())
	for g := 0; g < c.Syn.NumStrata(); g++ {
		sum, cnt := exactStratum(c.T.vals, q, c.Syn.stratumRows(g), 0, 0)
		res.Sum[g] = sum
		res.Cnt[g] = float64(cnt)
	}
	return res
}

// MeanRelativeError is the error half of the aggregation accuracy
// metric: the mean over group keys of the relative error of approx
// against exact, where each key's error is |a−e|/|e| capped at 1, 0
// when both are zero, and 1 when only the exact answer is zero. The
// cap keeps accuracy in [0,1] even for wildly wrong estimates.
func MeanRelativeError(approx, exact []float64) float64 {
	if len(approx) != len(exact) {
		panic("agg: MeanRelativeError length mismatch")
	}
	if len(exact) == 0 {
		return 0
	}
	total := 0.0
	for i := range exact {
		total += relErr(approx[i], exact[i])
	}
	return total / float64(len(exact))
}

func relErr(a, e float64) float64 {
	if a == e {
		return 0
	}
	if e == 0 {
		return 1
	}
	err := math.Abs(a-e) / math.Abs(e)
	if err > 1 {
		return 1
	}
	return err
}

// Accuracy is 1 − MeanRelativeError — the aggregation application's
// accuracy metric (the analogue of the recommender's RMSE-based
// accuracy and the search engine's top-k overlap).
func Accuracy(approx, exact []float64) float64 {
	return 1 - MeanRelativeError(approx, exact)
}

// MeasureLevelAccuracy calibrates one ladder level: it replays the
// queries synopsis-only (no set improvement) across all components,
// merges the partial results, and returns the mean accuracy against
// the exact merged answers. The per-level values feed the frontend
// degradation controller's LevelAccuracy — the bridge that lets
// Bounded{MinAccuracy} SLO classes map onto real measured error.
func MeasureLevelAccuracy(comps []*Component, queries []Query, level int) float64 {
	if len(comps) == 0 || len(queries) == 0 {
		return 0
	}
	nKeys := comps[0].T.NumKeys()
	approx := NewResult(nKeys)
	exact := NewResult(nKeys)
	var estA, estE []float64
	var scratch Result
	total := 0.0
	for _, q := range queries {
		approx = approx.Reset(nKeys)
		exact = exact.Reset(nKeys)
		for _, c := range comps {
			e := GetEngine(c, q, level)
			e.ProcessSynopsis()
			approx.Merge(e.Result())
			e.Release()
			scratch = ExactResultInto(scratch, c, q)
			exact.Merge(scratch)
		}
		estA = approx.EstimatesInto(estA, q.Op)
		estE = exact.EstimatesInto(estE, q.Op)
		total += Accuracy(estA, estE)
	}
	return total / float64(len(queries))
}
