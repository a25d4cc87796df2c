package core

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"accuracytrader/internal/stats"
)

// fakeEngine records the order in which sets are processed.
type fakeEngine struct {
	corr      []float64
	processed []int
}

func (f *fakeEngine) ProcessSynopsis() []float64 { return f.corr }
func (f *fakeEngine) ProcessSet(ag int)          { f.processed = append(f.processed, ag) }

func TestRankDescending(t *testing.T) {
	got := Rank([]float64{0.2, 0.9, 0.5, 0.9})
	want := []int{1, 3, 2, 0} // stable: id 1 before id 3 on tie
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Rank = %v, want %v", got, want)
		}
	}
}

func TestRankEmpty(t *testing.T) {
	if got := Rank(nil); len(got) != 0 {
		t.Fatalf("Rank(nil) = %v", got)
	}
}

func TestRunProcessesInCorrelationOrder(t *testing.T) {
	e := &fakeEngine{corr: []float64{0.1, 0.8, 0.4}}
	tr := Run(e, BudgetContinue(3), 0)
	want := []int{1, 2, 0}
	if tr.SetsProcessed != 3 {
		t.Fatalf("SetsProcessed = %d", tr.SetsProcessed)
	}
	for i := range want {
		if e.processed[i] != want[i] {
			t.Fatalf("order = %v, want %v", e.processed, want)
		}
	}
}

func TestRunHonorsBudget(t *testing.T) {
	e := &fakeEngine{corr: []float64{0.1, 0.8, 0.4, 0.6}}
	tr := Run(e, BudgetContinue(2), 0)
	if tr.SetsProcessed != 2 || len(e.processed) != 2 {
		t.Fatalf("budget violated: %v", e.processed)
	}
	if e.processed[0] != 1 || e.processed[1] != 3 {
		t.Fatalf("top-2 sets wrong: %v", e.processed)
	}
}

func TestRunHonorsIMax(t *testing.T) {
	e := &fakeEngine{corr: []float64{0.1, 0.8, 0.4, 0.6}}
	tr := Run(e, BudgetContinue(100), 3)
	if tr.SetsProcessed != 3 {
		t.Fatalf("imax violated: processed %d", tr.SetsProcessed)
	}
	// imax larger than the set count must not panic and processes all.
	e2 := &fakeEngine{corr: []float64{0.3, 0.1}}
	tr2 := Run(e2, BudgetContinue(100), 99)
	if tr2.SetsProcessed != 2 {
		t.Fatalf("processed %d of 2 sets", tr2.SetsProcessed)
	}
}

func TestRunZeroBudgetStillProducesInitialResult(t *testing.T) {
	// With no time for improvement, the synopsis-based initial result is
	// all that's produced — Algorithm 1 always returns a result.
	e := &fakeEngine{corr: []float64{0.5, 0.9}}
	tr := Run(e, BudgetContinue(0), 0)
	if tr.SetsProcessed != 0 || len(e.processed) != 0 {
		t.Fatalf("expected no sets processed, got %v", e.processed)
	}
	if len(tr.Ranking) != 2 {
		t.Fatalf("ranking missing: %v", tr.Ranking)
	}
}

func TestRunRankingIsPermutationProperty(t *testing.T) {
	rng := stats.NewRNG(1)
	f := func(seed uint32, n uint8) bool {
		r := rng.Split(uint64(seed))
		m := int(n%50) + 1
		corr := make([]float64, m)
		for i := range corr {
			corr[i] = r.Float64()
		}
		e := &fakeEngine{corr: corr}
		tr := Run(e, BudgetContinue(m), 0)
		if len(tr.Ranking) != m {
			return false
		}
		seen := make([]bool, m)
		for _, id := range tr.Ranking {
			if id < 0 || id >= m || seen[id] {
				return false
			}
			seen[id] = true
		}
		// Correlations must be non-increasing along the ranking.
		for i := 1; i < m; i++ {
			if corr[tr.Ranking[i-1]] < corr[tr.Ranking[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refRank is an independent stable ranking for NaN-free correlations:
// insertion by descending correlation, each id placed after every
// earlier id whose correlation is not lower, so ties (±0 included) keep
// the lower id first.
func refRank(corr []float64) []int {
	ids := make([]int, 0, len(corr))
	for i := range corr {
		j := len(ids)
		for j > 0 && corr[i] > corr[ids[j-1]] {
			j--
		}
		ids = slices.Insert(ids, j, i)
	}
	return ids
}

// TestRankMatchesStableReference pins Rank's order on correlations drawn
// from a small pool, so ties are common, with ±0, ±Inf and NaN, at
// lengths across the stable sort's insertion-block boundaries. NaN-free
// inputs must match refRank. NaN compares false both ways, so the order
// around it is the sort algorithm's; those inputs must match
// sort.SliceStable under the same less function, the ranking Algorithm
// 1 has always used.
func TestRankMatchesStableReference(t *testing.T) {
	pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 0.25, 0.5, 0.5, 1}
	rng := stats.NewRNG(99)
	for trial := 0; trial < 3000; trial++ {
		corr := make([]float64, rng.Intn(70))
		withNaN := trial%2 == 0
		for i := range corr {
			if withNaN {
				corr[i] = pool[rng.Intn(len(pool))]
			} else {
				corr[i] = pool[1+rng.Intn(len(pool)-1)]
			}
		}
		want := refRank(corr)
		if withNaN {
			want = make([]int, len(corr))
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(a, b int) bool { return corr[want[a]] > corr[want[b]] })
		}
		if got := Rank(corr); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Rank(%v) = %v, want %v", trial, corr, got, want)
		}
	}
}

// TestRankAllocatesOnlyItsResult pins Rank at one allocation, the
// returned ids: the sort itself allocates nothing.
func TestRankAllocatesOnlyItsResult(t *testing.T) {
	corr := []float64{0.3, 0.9, 0.1, 0.9, 0.5}
	if n := testing.AllocsPerRun(100, func() { Rank(corr) }); n != 1 {
		t.Fatalf("Rank allocates %v per call, want 1", n)
	}
}

func TestDeadlineContinueStops(t *testing.T) {
	c := &manualClock{}
	cont := DeadlineContinue(c, 10*time.Millisecond)
	if !cont(0) {
		t.Fatal("should continue before deadline")
	}
	c.t = 11 * time.Millisecond
	if cont(1) {
		t.Fatal("should stop after deadline")
	}
}

type manualClock struct{ t time.Duration }

func (m *manualClock) Elapsed() time.Duration { return m.t }

func TestWallClockAdvances(t *testing.T) {
	c := NewWallClock()
	a := c.Elapsed()
	time.Sleep(2 * time.Millisecond)
	if b := c.Elapsed(); b <= a {
		t.Fatalf("wall clock did not advance: %v then %v", a, b)
	}
}

func TestRunWithDeadlineProcessesSomething(t *testing.T) {
	e := &fakeEngine{corr: []float64{0.4, 0.2, 0.9}}
	tr := RunWithDeadline(e, 50*time.Millisecond, 0)
	if tr.SetsProcessed == 0 {
		t.Fatal("generous deadline processed no sets")
	}
}
