package ingest

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/csr"
)

// AggSnapshot is one epoch of a live aggregation shard: a frozen base
// component (table prefix + priority-ordered stratified synopsis) plus
// the delta rows appended since the last compaction. Snapshots are
// immutable; queries running on an acquired snapshot keep answering
// with its epoch's data across any number of swaps.
type AggSnapshot struct {
	comp      *agg.Component
	deltaKeys []int32
	deltaVals []float64
	numKeys   int
}

// Base returns the frozen base component, nil before the first
// compaction. The synopsis engines (agg.GetEngine, agg.ExactResultInto)
// run against it unchanged; delta rows are folded on top with
// FoldDelta.
func (s *AggSnapshot) Base() *agg.Component { return s.comp }

// NumKeys returns the group-key domain size.
func (s *AggSnapshot) NumKeys() int { return s.numKeys }

// Rows returns the total rows visible at this epoch (base + delta).
func (s *AggSnapshot) Rows() int {
	n := len(s.deltaKeys)
	if s.comp != nil {
		n += s.comp.T.NumRows()
	}
	return n
}

// DeltaRows returns the rows not yet folded into the base synopsis.
func (s *AggSnapshot) DeltaRows() int { return len(s.deltaKeys) }

// FoldDelta scans the delta segment exactly and adds the selected rows
// into res. Delta rows contribute with zero variance — an unmerged
// append can only tighten the CLT bounds, never loosen them — which is
// what keeps Bounded-class accuracy floors honest between compactions.
func (s *AggSnapshot) FoldDelta(res agg.Result, q agg.Query) {
	for i, k := range s.deltaKeys {
		x, hit := q.Select(s.deltaVals[i])
		res.Sum[k] += x
		res.Cnt[k] += float64(hit)
	}
}

// QueryLevel answers the query from the ladder-level samples of the
// base plus an exact delta fold, accumulating into res's reused buffers
// (re-zeroed first); it returns the (possibly re-anchored) result. The
// path is allocation-free once pools are warm: one pooled engine over
// the immutable base, one linear scan over the delta slices.
func (s *AggSnapshot) QueryLevel(res agg.Result, q agg.Query, level int) agg.Result {
	res = res.Reset(s.numKeys)
	if s.comp != nil {
		e := agg.GetEngine(s.comp, q, level)
		e.ProcessSynopsis()
		res.Merge(e.Result())
		e.Release()
	}
	s.FoldDelta(res, q)
	return res
}

// Exact answers the query by scanning every visible row, accumulating
// into res's reused buffers; it returns the (possibly re-anchored)
// result. Row order is base strata in synopsis order, then the delta in
// arrival order — exactly the order a frozen rebuild scans once the
// delta has been compacted, so results at merged epochs are
// bit-identical to the rebuild's.
func (s *AggSnapshot) Exact(res agg.Result, q agg.Query) agg.Result {
	if s.comp != nil {
		res = agg.ExactResultInto(res, s.comp, q)
	} else {
		res = res.Reset(s.numKeys)
	}
	s.FoldDelta(res, q)
	return res
}

// AggStats counts a live aggregation shard's ingest activity.
type AggStats struct {
	Appends     uint64 // rows ever appended
	Publishes   uint64 // delta publishes (epoch swaps without compaction)
	Compactions uint64 // base rebuilds
	Rows        int    // rows appended (published or not)
	BaseRows    int    // rows folded into the current base
	StagedRows  int    // appended but not yet visible in any snapshot
}

// AggLive is the online update path for one aggregation shard: an
// append-only columnar row log, per-stratum reservoirs kept ordered by
// deterministic sampling priority, and epoch-swapped snapshots. Appends
// stage rows invisibly; PublishDelta makes them visible as an exactly
// scanned delta segment; Compact folds everything into a new base
// synopsis whose per-level sample lengths are recomputed for the grown
// strata (reservoir maintenance), keeping each level's sampling rate
// honest. All mutators serialize on one mutex; readers never lock.
type AggLive struct {
	numKeys int
	cfg     agg.Config
	seed    uint64

	mu        sync.Mutex
	keys      []int32
	vals      []float64
	based     int // rows folded into the base synopsis
	published int // rows visible in the current snapshot
	base      *agg.Component
	strata    csr.Store[int32] // per-stratum ids of [0,based), (priority,row)-ordered
	pending   csr.Store[int32] // per-stratum ids of [based,len), arrival order
	scratch   []int32
	oldest    time.Time // arrival of the oldest row not yet visible
	stats     AggStats

	snaps Epochs[AggSnapshot]
}

// NewAggLive returns an empty live shard over a key domain of numKeys
// group keys, with an initial empty snapshot already published (epoch
// 1). cfg drives both the ladder (rates, sample floor) and, via its
// seed, the deterministic per-row sampling priorities.
func NewAggLive(numKeys int, cfg agg.Config) *AggLive {
	if numKeys <= 0 {
		panic("ingest: live shard needs a positive key domain")
	}
	l := &AggLive{numKeys: numKeys, cfg: cfg, seed: cfg.Seed ^ 0x1b9a5e11d0e57a1e}
	for s := 0; s < numKeys; s++ {
		l.strata.AddRow(nil)
		l.pending.AddRow(nil)
	}
	l.snaps.Publish(&AggSnapshot{numKeys: numKeys})
	return l
}

// Snapshot acquires the current snapshot and its epoch — one atomic
// load, no allocation.
func (l *AggLive) Snapshot() (*AggSnapshot, uint64) { return l.snaps.Acquire() }

// Epoch returns the current epoch.
func (l *AggLive) Epoch() uint64 { return l.snaps.Epoch() }

// Stats returns a snapshot of the ingest counters.
func (l *AggLive) Stats() AggStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Rows = len(l.keys)
	st.BaseRows = l.based
	st.StagedRows = len(l.keys) - l.published
	return st
}

// Append stages a batch of rows. The batch becomes visible atomically
// at the next PublishDelta (or Compact); a key outside [0, numKeys)
// rejects the whole batch. Returns the number of rows accepted.
func (l *AggLive) Append(keys []int32, vals []float64) (int, error) {
	if len(keys) != len(vals) {
		return 0, fmt.Errorf("ingest: append shape %d keys, %d vals", len(keys), len(vals))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, k := range keys {
		if k < 0 || int(k) >= l.numKeys {
			return 0, fmt.Errorf("ingest: key %d outside domain [0,%d)", k, l.numKeys)
		}
	}
	if len(l.keys) == l.published {
		l.oldest = time.Now()
	}
	for i, k := range keys {
		l.pending.AppendElem(int(k), int32(len(l.keys)))
		l.keys = append(l.keys, k)
		l.vals = append(l.vals, vals[i])
	}
	l.stats.Appends += uint64(len(keys))
	return len(keys), nil
}

// publishLocked swaps in a snapshot exposing rows [0, n). Caller holds
// l.mu.
func (l *AggLive) publishLocked(n int) (uint64, int, time.Duration) {
	var lag time.Duration
	if n > l.published && !l.oldest.IsZero() {
		lag = time.Since(l.oldest)
		l.oldest = time.Time{}
	}
	moved := n - l.published
	snap := &AggSnapshot{
		comp:      l.base,
		deltaKeys: l.keys[l.based:n:n],
		deltaVals: l.vals[l.based:n:n],
		numKeys:   l.numKeys,
	}
	l.published = n
	l.stats.Publishes++
	return l.snaps.Publish(snap), moved, lag
}

// PublishDelta makes every staged row visible by swapping in a fresh
// snapshot that extends the delta segment over the shared append-only
// columns (no copying — the snapshot captures capacity-clamped slice
// prefixes). It returns the new epoch, the number of rows that became
// visible, and the freshness lag of the oldest of them; a no-op publish
// (nothing staged) keeps the current epoch and returns 0 rows.
func (l *AggLive) PublishDelta() (uint64, int, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.keys); n > l.published {
		return l.publishLocked(n)
	}
	return l.snaps.Epoch(), 0, 0
}

// Compact folds all appended rows into a new base: per stratum, the
// pending ids are priority-sorted and merged into the reservoir order,
// then the sample ladder's per-level lengths are recomputed for the
// grown strata and a fresh base component is published with an empty
// delta. Because the per-row priority is a pure function of (seed,
// row id), the merged order — and therefore every sample prefix and
// every query answer — is bit-identical to rebuilding the synopsis from
// scratch over the same rows. Returns the new epoch, the rows folded,
// and the freshness lag of the oldest row that became visible.
func (l *AggLive) Compact() (uint64, int, time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.keys)
	if n == l.based {
		return l.snaps.Epoch(), 0, 0, nil
	}
	for s := 0; s < l.numKeys; s++ {
		seg := l.pending.Row(s)
		if len(seg) == 0 {
			continue
		}
		slices.SortFunc(seg, func(a, b int32) int {
			if priorityLess(l.seed, a, b) {
				return -1
			}
			return 1
		})
		l.scratch = mergeByPriority(l.scratch[:0], l.seed, l.strata.Row(s), seg)
		l.strata.SetRow(s, l.scratch)
		l.pending.SetRow(s, nil)
	}
	rows := make([]int32, n)
	off := make([]int32, l.numKeys+1)
	pos := 0
	for s := 0; s < l.numKeys; s++ {
		off[s] = int32(pos)
		pos += copy(rows[pos:], l.strata.Row(s))
	}
	off[l.numKeys] = int32(pos)
	t := agg.TableFromColumns(l.keys[:n:n], l.vals[:n:n], l.numKeys)
	syn, err := agg.SynopsisFromOrder(t, l.cfg, rows, off)
	if err != nil {
		return l.snaps.Epoch(), 0, 0, err
	}
	folded := n - l.based
	l.base = &agg.Component{T: t, Syn: syn}
	l.based = n
	l.stats.Compactions++
	ep, _, lag := l.publishLocked(n)
	return ep, folded, lag, nil
}

// mergeByPriority merges two (priority,row)-ordered id lists into dst.
func mergeByPriority(dst []int32, seed uint64, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if priorityLess(seed, a[i], b[j]) {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// BuildAggSnapshot is the frozen-rebuild reference: it constructs, in
// one shot, the compacted snapshot a live shard converges to after
// appending exactly these rows (in any batching) and compacting. The
// property harness pins live interleavings against it bit-for-bit.
func BuildAggSnapshot(numKeys int, cfg agg.Config, keys []int32, vals []float64) (*AggSnapshot, error) {
	l := NewAggLive(numKeys, cfg)
	if _, err := l.Append(keys, vals); err != nil {
		return nil, err
	}
	if _, _, _, err := l.Compact(); err != nil {
		return nil, err
	}
	snap, _ := l.Snapshot()
	return snap, nil
}
