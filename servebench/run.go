package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"accuracytrader/internal/audit"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/rescache"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/wire"
)

// drainTimeout bounds how long requests still in flight at the end of
// the window may take before they are cancelled and counted as
// transport errors.
const drainTimeout = 5 * time.Second

// traceBlock is the length of the alternating untraced and traced
// blocks of a traced run.
const traceBlock = time.Second

// readRec is one read as the client saw it, filled by its own goroutine.
type readRec struct {
	lateNs    int64
	transport bool // no reply: connection failure or cancelled wait
	status    uint8
	level     int16
	mismatch  bool    // Exact reply not bit-identical, or payload missing
	acc       float64 // realized or claimed accuracy; -1 for Exact replies
	o         outcome
}

// writeRec is one append batch.
type writeRec struct {
	lateNs int64
	latNs  int64
	ok     bool
	subset int32
	keys   []int32
	vals   []float64
}

// resources is a snapshot of process-wide counters.
type resources struct {
	at      time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
	gcCPU   float64 // cumulative GC CPU seconds
}

func snapshot(withMem bool) resources {
	r := resources{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if withMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.mallocs, r.bytes = ms.Mallocs, ms.TotalAlloc
		s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
		metrics.Read(s)
		r.gcCPU = s[0].Value.Float64()
	}
	return r
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// block is one traced or untraced stretch of a traced run.
type block struct {
	traced     bool
	start, end resources
}

// runData is everything measured over one window.
type runData struct {
	window time.Duration
	reads  []arrival
	recs   []readRec
	writes []arrival
	wrecs  []writeRec
	start  time.Time
	begin  resources
	end    resources
	blocks []block

	// The layers' own counters at the start and end of the window.
	aggStats0, aggStats1 netsvc.AggregatorStats
	srvStats0, srvStats1 netsvc.ServerStats
	fe0, fe1             frontend.Stats
	cache0, cache1       rescache.Stats
	audit0, audit1       audit.Stats
	epoch0, epoch1       uint64

	mu         sync.Mutex
	mismatches []string
}

// layerStats records the layers' own counters at one end of the window.
func (st *stack) layerStats(agr *netsvc.AggregatorStats, srv *netsvc.ServerStats, fe *frontend.Stats,
	cache *rescache.Stats, aud *audit.Stats, epoch *uint64) {
	*agr, *srv, *epoch = st.agr.Stats(), st.serverStats(), st.fs.DataEpoch()
	if st.fe != nil {
		*fe = st.fe.Stats()
	}
	if st.cache != nil {
		*cache = st.cache.Stats()
	}
	*aud = st.auditor.Stats() // nil-safe: zero when auditing is off
}

func (st *stack) serverStats() netsvc.ServerStats {
	var sum netsvc.ServerStats
	for _, s := range st.servers {
		x := s.Stats()
		sum.Requests += x.Requests
		sum.Abandoned += x.Abandoned
		sum.Shed += x.Shed
		sum.Ingests += x.Ingests
	}
	return sum
}

// drive runs the open-loop window: each read is fired on its own
// goroutine at its due time and timed from that due time, whether or
// not the generator was late. A traced run alternates untraced and
// traced blocks of traceBlock each.
func (st *stack) drive(seed uint64, window time.Duration) *runData {
	d := &runData{
		window: window,
		reads:  st.w.readSchedule(seed, window),
		writes: st.w.writeSchedule(seed, window),
	}
	d.recs = make([]readRec, len(d.reads))
	d.wrecs = make([]writeRec, len(d.writes))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st.layerStats(&d.aggStats0, &d.srvStats0, &d.fe0, &d.cache0, &d.audit0, &d.epoch0)
	d.begin = snapshot(st.tr != nil)
	d.start = d.begin.at.Add(time.Millisecond)

	var bg sync.WaitGroup
	if st.tr != nil {
		bg.Add(1)
		go func() { defer bg.Done(); st.flipBlocks(d) }()
	}
	if len(d.writes) > 0 {
		bg.Add(1)
		go func() { defer bg.Done(); st.writeLoop(ctx, d) }()
	}
	var inflight sync.WaitGroup
	for i, a := range d.reads {
		due := d.start.Add(a.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			st.read(ctx, d, i, a, due)
		}()
	}
	time.Sleep(time.Until(d.start.Add(window)))
	done := make(chan struct{})
	go func() { inflight.Wait(); bg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		cancel()
		<-done
	}
	d.end = snapshot(st.tr != nil)
	st.layerStats(&d.aggStats1, &d.srvStats1, &d.fe1, &d.cache1, &d.audit1, &d.epoch1)
	return d
}

// flipBlocks toggles recording at block boundaries and snapshots the
// process counters at each boundary.
func (st *stack) flipBlocks(d *runData) {
	n, blockLen := blockLayout(d.window)
	prev := snapshot(true)
	for k := 0; k < n; k++ {
		traced := k%2 == 1
		st.tr.on.Store(traced)
		time.Sleep(time.Until(d.start.Add(time.Duration(k+1) * blockLen)))
		cur := snapshot(true)
		d.blocks = append(d.blocks, block{traced: traced, start: prev, end: cur})
		prev = cur
	}
	st.tr.on.Store(false)
}

// read sends one whole-service request and scores its reply.
func (st *stack) read(ctx context.Context, d *runData, i int, a arrival, due time.Time) {
	rec := &d.recs[i]
	rec.lateNs = int64(time.Since(due))
	class, minAcc := st.w.classOf(i)
	req := *st.reqs[a.tmpl]
	req.SLO, req.MinAccuracy = class, minAcc
	if class != wire.SLOExact {
		req.Deadline = due.Add(st.w.deadline).UnixNano()
	}
	var start int64
	traced := st.tr != nil && st.tr.on.Load()
	if traced {
		start = st.tr.now()
		st.tr.captureRequest(&req)
	}
	rep, err := st.cl.Call(ctx, &req)
	lat := time.Since(due)
	rec.o = outcome{latencyMs: ms(lat), class: class, minAcc: minAcc}
	rec.acc = -1
	if err != nil {
		rec.transport = true
		return
	}
	if traced {
		st.tr.add(span{kind: spanClient, id: rep.ID, start: start, end: st.tr.now()})
		st.tr.captureReply(rep)
	}
	rec.status, rec.level = rep.Status, rep.Level
	if rep.Status != wire.ReplyOK && rep.Status != wire.ReplyDegraded {
		return
	}
	rec.o.answered = true
	if rep.SLO == wire.SLOExact {
		rec.o.exact = st.w.live || st.exactMatches(a.tmpl, rep)
		if !rec.o.exact {
			rec.mismatch = true
			d.noteMismatch(fmt.Sprintf("request %d (template %d): Exact reply differs from the in-process exact composition", i, a.tmpl))
		}
		return
	}
	acc, ok := st.accuracy(a.tmpl, rep)
	if answered, _ := netsvc.DegradeStats(rep.SubStatus); answered == 0 && rep.Status == wire.ReplyDegraded {
		// A BestEffort answer composed over no strata at all: an honest,
		// empty answer of accuracy 0.
		acc, ok = 0, true
	}
	if !ok {
		rec.mismatch = true
		d.noteMismatch(fmt.Sprintf("request %d (template %d): answered reply without a well-formed payload", i, a.tmpl))
		return
	}
	rec.acc, rec.o.acc = acc, acc
}

func (d *runData) noteMismatch(msg string) {
	d.mu.Lock()
	if len(d.mismatches) < 8 {
		d.mismatches = append(d.mismatches, msg)
	}
	d.mu.Unlock()
}

func (st *stack) exactMatches(tmpl int, rep *wire.Reply) bool {
	if st.w.kind == wire.KindCF {
		return sameCF(rep.CF, st.cfExact[tmpl])
	}
	return sameAgg(rep.Agg, st.aggExact[tmpl])
}

// accuracy is an approximate reply's realized accuracy against the
// exact answer; on the live workload, whose ground truth moves with
// every append, it is the accuracy the stack claims for the served
// level (discounted for missing strata). ok is false for a reply whose
// payload is missing or mis-shaped.
func (st *stack) accuracy(tmpl int, rep *wire.Reply) (float64, bool) {
	switch {
	case st.w.kind == wire.KindCF:
		return cfAccuracy(rep.CF, st.cfExact[tmpl], st.cfMean[tmpl])
	case st.w.live:
		if rep.Agg == nil || int(rep.Level) < 0 || int(rep.Level) >= len(st.levelAcc) {
			return 0, false
		}
		answered, total := netsvc.DegradeStats(rep.SubStatus)
		return netsvc.DiscountAccuracy(st.levelAcc[rep.Level], answered, total), true
	default:
		q := st.aggQ[tmpl]
		return aggAccuracy(rep.Agg, st.aggExact[tmpl], q.Op)
	}
}

// writeLoop sends the append batches in schedule order from one
// goroutine, so each shard stages them in a known order; each is timed
// from its due time.
func (st *stack) writeLoop(ctx context.Context, d *runData) {
	for i, a := range d.writes {
		due := d.start.Add(a.due)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		rec := &d.wrecs[i]
		rec.lateNs = int64(time.Since(due))
		rec.keys, rec.vals = st.batch(i)
		var start int64
		traced := st.tr != nil && st.tr.on.Load()
		if traced {
			start = st.tr.now()
		}
		ack, err := st.cl.Ingest(ctx, &wire.IngestRequest{Kind: wire.KindAgg, Subset: -1,
			Agg: &wire.AggIngest{Keys: rec.keys, Vals: rec.vals}})
		rec.latNs = int64(time.Since(due))
		if traced {
			st.tr.add(span{kind: spanIngest, id: uint64(i), start: start, end: st.tr.now()})
		}
		if err == nil && ack.Status == wire.IngestOK && int(ack.Accepted) == len(rec.keys) {
			rec.ok, rec.subset = true, ack.Subset
		}
	}
}

// batch draws append batch i from the seed: batchRows rows with
// Zipf-popular keys and log-normal values, like the base fact rows.
func (st *stack) batch(i int) ([]int32, []float64) {
	rng := stats.NewRNG(st.seed ^ 0xba7c4 ^ uint64(i+1)*0x9e3779b97f4a7c15)
	z := stats.NewZipf(rng.Split(1), st.facts.Subsets[0].NumKeys(), 1.1)
	keys := make([]int32, st.w.batchRows)
	vals := make([]float64, st.w.batchRows)
	for r := range keys {
		keys[r], vals[r] = int32(z.Draw()), rng.LogNormal(1, 0.78)
	}
	return keys, vals
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
