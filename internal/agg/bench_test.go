package agg_test

import (
	"testing"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/core"
	"accuracytrader/internal/workload"
)

// benchShard builds one shard at the serving benchmark's shape — 4000
// Zipf-keyed rows over 48 group keys, the default sampling ladder —
// with a rotation of value-filter queries.
func benchShard(tb testing.TB) (*agg.Component, []agg.Query) {
	tb.Helper()
	cfg := workload.DefaultFactsConfig()
	cfg.Seed = 1
	data := workload.GenerateFacts(cfg, 1)
	c, err := agg.BuildComponent(data.Subsets[0], agg.Config{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return c, data.SampleAggQueries(1, 64)
}

// BenchmarkAggEngineExact measures one Exact sub-operation: a scan of
// every row of the shard.
func BenchmarkAggEngineExact(b *testing.B) {
	c, qs := benchShard(b)
	var res agg.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = agg.ExactResultInto(res, c, qs[i%len(qs)])
	}
}

// BenchmarkAggEngineFinest measures one approximate sub-operation at
// the finest ladder level with every set improved: Algorithm 1 run to
// completion on a pooled engine.
func BenchmarkAggEngineFinest(b *testing.B) {
	c, qs := benchShard(b)
	finest := c.Syn.Levels() - 1
	all := core.BudgetContinue(c.Syn.NumStrata())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := agg.GetEngine(c, qs[i%len(qs)], finest)
		core.Run(e, all, 0)
		e.Release()
	}
}

// TestAggEngineZeroAlloc asserts the warm pooled engine path and the
// buffer-reusing exact scan allocate nothing per query.
func TestAggEngineZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse")
	}
	c, qs := benchShard(t)
	finest := c.Syn.Levels() - 1
	i := 0
	// AllocsPerRun's warm-up invocation primes the engine pool.
	if n := testing.AllocsPerRun(100, func() {
		e := agg.GetEngine(c, qs[i%len(qs)], finest)
		e.ProcessSynopsis()
		for g := 0; g < c.Syn.NumStrata(); g++ {
			e.ProcessSet(g)
		}
		e.Release()
		i++
	}); n != 0 {
		t.Fatalf("pooled engine path allocates %v per query, want 0", n)
	}
	res := agg.NewResult(c.T.NumKeys())
	if n := testing.AllocsPerRun(100, func() {
		res = agg.ExactResultInto(res, c, qs[i%len(qs)])
		i++
	}); n != 0 {
		t.Fatalf("ExactResultInto allocates %v per query, want 0", n)
	}
}
