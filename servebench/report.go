package main

import (
	"fmt"
	"math"
	"time"

	"accuracytrader/internal/wire"
)

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// summary is the client-side view of one window.
type summary struct {
	sent, writes        int
	answered, good      int
	transport, errs     int
	rejected, unavail   int
	mismatches          int
	writeFails          int
	lat, late, appendMs dist
	acc, level          dist
}

// subWindows is how many equal parts of the window the latency
// percentiles are taken over before their median is reported.
const subWindows = 10

// windowedQuantile is the median over sub-windows of the latency
// q-quantile of the reads due in each: one slow stretch of the window
// moves it less than a whole-window percentile. It uses as many
// sub-windows (at most subWindows) as leave each enough reads to
// support q by the percentile rule, and returns the quantile it could
// support, which is below q only when the whole sample is too small.
func windowedQuantile(d *runData, q float64) (value, supported float64) {
	answered := 0
	for i := range d.recs {
		if d.recs[i].o.answered {
			answered++
		}
	}
	need := int(math.Ceil(float64(minTail) / (1 - q)))
	k := max(min(subWindows, answered/need), 1)
	parts := make([]dist, k)
	span := d.window / time.Duration(k)
	for i, a := range d.reads {
		if r := &d.recs[i]; r.o.answered {
			parts[min(int(a.due/span), k-1)].add(r.o.latencyMs)
		}
	}
	var per dist
	supported = q
	for i := range parts {
		per.add(parts[i].q(q))
		supported = min(supported, supportedQuantile(q, parts[i].n()))
	}
	return per.q(0.5), supported
}

func summarize(st *stack, d *runData) *summary {
	s := &summary{}
	limit := ms(st.w.limit)
	for i := range d.recs {
		r := &d.recs[i]
		s.sent++
		s.late.add(float64(r.lateNs) / 1e6)
		if r.mismatch {
			s.mismatches++
		}
		switch {
		case r.transport:
			s.transport++
		case r.status == wire.ReplyRejected:
			s.rejected++
		case r.status == wire.ReplyUnavailable:
			s.unavail++
		case r.status == wire.ReplyErr:
			s.errs++
		}
		if !r.o.answered {
			continue
		}
		s.answered++
		s.lat.add(r.o.latencyMs)
		if r.level >= 0 { // no level without a frontend
			s.level.add(float64(r.level))
		}
		if r.acc >= 0 {
			s.acc.add(r.acc)
		}
		if good(r.o, limit) {
			s.good++
		}
	}
	for _, w := range d.wrecs {
		s.writes++
		s.late.add(float64(w.lateNs) / 1e6)
		if !w.ok {
			s.writeFails++
			continue
		}
		s.appendMs.add(float64(w.latNs) / 1e6)
	}
	return s
}

// failFrac is the share of reads that failed or were refused.
func (s *summary) failFrac() float64 {
	return float64(s.transport+s.errs+s.rejected+s.unavail) / float64(max(s.sent, 1))
}

// endToEnd are the gated metrics of an untraced run. accuracy is the
// workload's accuracy sample (the post-load probe on agglive-mixed).
func endToEnd(st *stack, d *runData, s *summary, setup float64, accuracy *dist) []metric {
	ops := float64(max(s.sent+s.writes, 1))
	p50, _ := windowedQuantile(d, 0.5)
	return []metric{
		{"setup_s", "s", setup},
		{"p50_ms", "ms", p50},
		{"goodput_rps", "1/s", float64(s.good) / d.window.Seconds()},
		{"accuracy_mean", "ratio", accuracy.mean()},
		{"cpu_us_per_req", "us", float64(d.end.cpu-d.begin.cpu) / 1e3 / ops},
		{"rss_mb", "MB", peakRSSMB()},
	}
}

// blockLayout splits a window into alternating blocks of about
// traceBlock each (at least two).
func blockLayout(window time.Duration) (n int, length time.Duration) {
	n = max(int(window/traceBlock), 2)
	return n, window / time.Duration(n)
}

// perLayer derives the per-layer metrics of a traced run from the
// harness-side spans, the socket and runtime counters, and the layers'
// own stats snapshots.
func perLayer(st *stack, d *runData, s *summary) ([]metric, error) {
	tr := st.tr
	_, blen := blockLayout(d.window)
	// Operations due in traced and untraced blocks, and the answered
	// reads' latencies in each.
	var ops [2]int
	var lat [2]dist // whole-block latencies: 0 untraced, 1 traced
	for i, a := range d.reads {
		k := int(a.due/blen) % 2
		ops[k]++
		if r := &d.recs[i]; r.o.answered {
			lat[k].add(r.o.latencyMs)
		}
	}
	for _, a := range d.writes {
		ops[int(a.due/blen)%2]++
	}
	var cpu [2]time.Duration
	var mallocs, bytes [2]uint64
	var gcCPU [2]float64
	type window struct{ start, end int64 }
	var traced []window
	for _, b := range d.blocks {
		k := 0
		if b.traced {
			k = 1
			traced = append(traced, window{int64(b.start.at.Sub(tr.base)), int64(b.end.at.Sub(tr.base))})
		}
		cpu[k] += b.end.cpu - b.start.cpu
		mallocs[k] += b.end.mallocs - b.start.mallocs
		bytes[k] += b.end.bytes - b.start.bytes
		gcCPU[k] += b.end.gcCPU - b.start.gcCPU
	}
	perOp := func(v float64, k int) float64 { return v / float64(max(ops[k], 1)) }

	spans := tr.all()
	byKind := map[spanKind][]span{}
	for _, sp := range spans {
		byKind[sp.kind] = append(byKind[sp.kind], sp)
	}
	// A request is fully traced when its client span lies inside one
	// traced block: every layer below it recorded while tracing was on.
	full := map[uint64]span{}
	for _, c := range byKind[spanClient] {
		for _, w := range traced {
			if c.start >= w.start && c.end <= w.end {
				full[c.id] = c
				break
			}
		}
	}
	handlers := map[uint64][]interval{} // by request ID
	handlerDur := map[uint64]int64{}    // by sub-operation ID
	var handlerUs, sets dist
	var busy int64
	for _, h := range byKind[spanHandler] {
		busy += h.dur()
		handlerUs.add(float64(h.dur()) / 1e3)
		handlerDur[h.sub] = h.dur()
		if h.val >= 0 {
			sets.add(float64(h.val))
		}
		if _, ok := full[h.id]; ok {
			handlers[h.id] = append(handlers[h.id], interval{h.start, h.end})
		}
	}
	fanouts := map[uint64]span{}
	var callUs dist
	for _, f := range byKind[spanFanout] {
		if _, ok := full[f.id]; ok {
			fanouts[f.id] = f
			callUs.add(float64(f.dur()) / 1e3)
		}
	}
	var frontSelf dist
	for id, c := range full {
		if st.fe == nil {
			frontSelf.add(float64(selfTime(interval{c.start, c.end}, handlers[id])) / 1e3)
		} else if f, ok := fanouts[id]; ok {
			frontSelf.add(float64(c.dur()-f.dur()) / 1e3)
		}
	}
	var subopUs, waitUs, slowest dist
	skipped, subops := 0, 0
	perCall := map[uint64][]float64{}
	for _, so := range byKind[spanSubop] {
		subops++
		if so.val != 0 {
			skipped++
			continue
		}
		us := float64(so.dur()) / 1e3
		subopUs.add(us)
		perCall[so.id] = append(perCall[so.id], us)
		if h, ok := handlerDur[so.sub]; ok {
			waitUs.add(us - float64(h)/1e3)
		}
	}
	for _, v := range perCall {
		dv := dist{v: v}
		if med := dv.q(0.5); med > 0 {
			slowest.add(dv.max() / med)
		}
	}
	var tracedNs int64
	for _, w := range traced {
		tracedNs += w.end - w.start
	}
	var appendUs dist
	for _, in := range byKind[spanIngest] {
		appendUs.add(float64(in.dur()) / 1e3)
	}

	reqT, subT, repT, err := tr.codecTimings()
	if err != nil {
		return nil, fmt.Errorf("codec timing: %w", err)
	}
	fs0, fs1 := d.fe0, d.fe1
	agg0, agg1 := d.aggStats0, d.aggStats1
	srv0, srv1 := d.srvStats0, d.srvStats1
	dReq := srv1.Requests - srv0.Requests
	dShed := srv1.Shed - srv0.Shed
	c0, c1 := d.cache0, d.cache1
	lookups := float64(max(c1.Hits-c0.Hits+c1.Misses-c0.Misses, 1))
	sent := float64(max(s.sent, 1))
	costRows := 0
	if st.costs != nil {
		costRows = len(st.costs.Snapshot().Rows)
	}
	return []metric{
		{"gen.late_p99_ms", "ms", s.late.q(0.99)},
		{"gen.late_max_ms", "ms", s.late.max()},
		{"front.self_us_p50", "us", frontSelf.q(0.5)},
		{"front.self_us_p99", "us", frontSelf.q(0.99)},
		{"front.reject_frac", "ratio", float64(fs1.Rejected-fs0.Rejected) / sent},
		{"front.degrade_frac", "ratio", float64(fs1.Degraded-fs0.Degraded) / sent},
		{"front.level_mean", "level", s.level.mean()},
		{"front.unavailable_frac", "ratio", float64(s.unavail) / sent},
		{"fanout.call_us_p50", "us", callUs.q(0.5)},
		{"fanout.call_us_p99", "us", callUs.q(0.99)},
		{"fanout.subop_us_p50", "us", subopUs.q(0.5)},
		{"fanout.subop_us_p99", "us", subopUs.q(0.99)},
		{"fanout.wait_us_p50", "us", waitUs.q(0.5)},
		{"fanout.slowest_over_median", "ratio", slowest.mean()},
		{"fanout.skip_frac", "ratio", float64(skipped) / float64(max(subops, 1))},
		{"fanout.breaker_opens", "count", float64(agg1.BreakerOpens - agg0.BreakerOpens)},
		{"fanout.faults", "count", float64(agg1.Faults - agg0.Faults)},
		{"fanout.retries", "count", float64(agg1.Retries - agg0.Retries)},
		{"comp.handler_us_p50", "us", handlerUs.q(0.5)},
		{"comp.handler_us_p99", "us", handlerUs.q(0.99)},
		{"comp.busy_frac", "ratio", float64(busy) / float64(max(tracedNs*numServers*compWorkers, 1))},
		{"comp.sets_mean", "count", sets.mean()},
		{"comp.abandoned_frac", "ratio", float64(srv1.Abandoned-srv0.Abandoned) / float64(max(dReq, 1))},
		{"comp.shed_frac", "ratio", float64(dShed) / float64(max(dReq+dShed, 1))},
		{"net.writes_per_req", "count", perOp(float64(tr.sock.writes.Load()), 1)},
		{"net.reads_per_req", "count", perOp(float64(tr.sock.reads.Load()), 1)},
		{"net.bytes_per_req", "B", perOp(float64(tr.sock.bytes.Load()), 1)},
		{"wire.encode_ns.request", "ns", reqT.encodeNs},
		{"wire.decode_ns.request", "ns", reqT.decodeNs},
		{"wire.encode_ns.subreply", "ns", subT.encodeNs},
		{"wire.decode_ns.subreply", "ns", subT.decodeNs},
		{"wire.encode_ns.reply", "ns", repT.encodeNs},
		{"wire.decode_ns.reply", "ns", repT.decodeNs},
		{"go.allocs_per_req", "count", perOp(float64(mallocs[0]), 0)},
		{"go.alloc_bytes_per_req", "B", perOp(float64(bytes[0]), 0)},
		{"go.gc_cpu_frac", "ratio", gcCPU[0] / max(cpu[0].Seconds(), 1e-9)},
		{"cache.hit_frac", "ratio", float64(c1.Hits-c0.Hits) / lookups},
		{"cache.coalesced_frac", "ratio", float64(c1.Coalesced-c0.Coalesced) / lookups},
		{"cache.stale_frac", "ratio", float64(c1.Stale-c0.Stale) / lookups},
		{"ingest.append_us_p50", "us", appendUs.q(0.5)},
		{"ingest.append_us_p99", "us", appendUs.q(0.99)},
		{"ingest.epochs", "count", float64(d.epoch1 - d.epoch0)},
		{"audit.sampled", "count", float64(d.audit1.Sampled - d.audit0.Sampled)},
		{"audit.dropped", "count", float64(d.audit1.Dropped - d.audit0.Dropped)},
		{"cost.rows", "count", float64(costRows)},
		{"trace.cpu_us_per_req_untraced", "us", perOp(float64(cpu[0])/1e3, 0)},
		{"trace.cpu_us_per_req_traced", "us", perOp(float64(cpu[1])/1e3, 1)},
		{"trace.p50_ms_untraced", "ms", lat[0].q(0.5)},
		{"trace.p50_ms_traced", "ms", lat[1].q(0.5)},
		{"trace.p99_ms_untraced", "ms", lat[0].q(0.99)},
		{"trace.p99_ms_traced", "ms", lat[1].q(0.99)},
	}, nil
}
