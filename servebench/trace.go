package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
)

// Harness-side tracing. Every span is recorded by the benchmark around
// a call into a layer's public API, never inside the program: the
// client call, the frontend's backend call into the aggregator, each
// sub-operation the aggregator gathered, and each component handler
// run. All spans of one request carry its Reply.ID (sub-operations
// reach components with that ID in Request.Seq).

type spanKind uint8

const (
	spanClient  spanKind = iota // Client.Call, from send to reply
	spanFanout                  // Aggregator.Call under the frontend
	spanSubop                   // one gathered sub-operation (SubResult.Latency)
	spanHandler                 // one component handler run
	spanIngest                  // Client.Ingest, from send to acknowledgement
)

var spanNames = [...]string{"client.call", "fanout.call", "fanout.subop", "comp.handler", "ingest.append"}

// parentName is the span a kind's spans hang under. Without a frontend
// (cf-engine) the fan-out span is unreachable, and handlers hang
// directly under the client call.
func parentName(k spanKind, fanout bool) string {
	switch k {
	case spanFanout:
		return spanNames[spanClient]
	case spanSubop:
		return spanNames[spanFanout]
	case spanHandler:
		if fanout {
			return spanNames[spanFanout]
		}
		return spanNames[spanClient]
	default:
		return "-"
	}
}

// span is one recorded interval in nanoseconds since the tracer's base.
// sub is the sub-operation ID (0 for whole-request spans); val carries
// a per-kind figure: Algorithm 1 sets for handlers (-1 for Exact
// sub-operations), 1 for a skipped or failed sub-operation.
type span struct {
	kind       spanKind
	id, sub    uint64
	start, end int64
	val        int64
}

func (s span) dur() int64 { return s.end - s.start }

const spanShards = 32

type spanShard struct {
	mu    sync.Mutex
	spans []span
}

// sockStats counts socket calls and bytes on wrapped connections.
type sockStats struct {
	reads, writes, bytes atomic.Int64
}

// captureCap bounds how many frames of each kind are kept for the
// codec timing pass.
const captureCap = 256

// tracer holds the spans of a traced run in memory. Recording is on
// only while on is set; the wrappers pass straight through otherwise.
type tracer struct {
	on     atomic.Bool
	base   time.Time
	shards [spanShards]spanShard
	sock   sockStats

	capMu sync.Mutex
	reqs  []*wire.Request
	subs  []*wire.SubReply
	reps  []*wire.Reply
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	sh := &t.shards[s.id%spanShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// all returns every recorded span.
func (t *tracer) all() []span {
	var out []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	return out
}

// capture keeps a bounded sample of decoded messages for codec timing.
func (t *tracer) captureRequest(r *wire.Request) {
	t.capMu.Lock()
	if len(t.reqs) < captureCap {
		t.reqs = append(t.reqs, r)
	}
	t.capMu.Unlock()
}

func (t *tracer) captureSub(r *wire.SubReply) {
	t.capMu.Lock()
	if len(t.subs) < captureCap {
		t.subs = append(t.subs, r)
	}
	t.capMu.Unlock()
}

func (t *tracer) captureReply(r *wire.Reply) {
	t.capMu.Lock()
	if len(t.reps) < captureCap {
		t.reps = append(t.reps, r)
	}
	t.capMu.Unlock()
}

// wrapHandler times each component handler run. Every component server
// shares the handler, so one wrapper covers all of them.
func (t *tracer) wrapHandler(h netsvc.Handler) netsvc.Handler {
	return func(ctx context.Context, req *wire.Request) *wire.SubReply {
		if !t.on.Load() {
			return h(ctx, req)
		}
		start := t.now()
		rep := h(ctx, req)
		end := t.now()
		sets := int64(rep.SetsProcessed)
		if req.SLO == wire.SLOExact {
			sets = -1
		}
		t.add(span{kind: spanHandler, id: req.Seq, sub: req.ID, start: start, end: end, val: sets})
		t.captureSub(rep)
		return rep
	}
}

// tracedBackend is the frontend's view of the aggregator with each
// Call timed; every other Backend method is the aggregator's own.
type tracedBackend struct {
	*netsvc.Aggregator
	t *tracer
}

func (b tracedBackend) Call(ctx context.Context, payload interface{}) ([]service.SubResult, error) {
	t := b.t
	if !t.on.Load() {
		return b.Aggregator.Call(ctx, payload)
	}
	req, _ := payload.(*wire.Request)
	start := t.now()
	subs, err := b.Aggregator.Call(ctx, payload)
	end := t.now()
	if req == nil {
		return subs, err
	}
	t.add(span{kind: spanFanout, id: req.ID, start: start, end: end})
	for _, sr := range subs {
		s := span{kind: spanSubop, id: req.ID, start: start, end: start + int64(sr.Latency)}
		if rep, ok := sr.Value.(*wire.SubReply); ok && rep != nil {
			s.sub = rep.ID
		}
		if sr.Skipped || sr.Err != nil {
			s.val = 1
		}
		t.add(s)
	}
	return subs, err
}

// countingConn counts socket calls and bytes while tracing is on.
type countingConn struct {
	net.Conn
	t *tracer
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.t.on.Load() {
		c.t.sock.reads.Add(1)
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.t.on.Load() {
		c.t.sock.writes.Add(1)
		c.t.sock.bytes.Add(int64(n))
	}
	return n, err
}

type countingListener struct {
	net.Listener
	t *tracer
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, t: l.t}, nil
}

// dial is the aggregator's transport dial with counted connections.
func (t *tracer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, t: t}, nil
}

// interval is a half-open [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it that its children
// cover; overlapping children count once, and child time outside the
// parent is ignored.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, c := range clipped {
		if c.start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
		} else if c.end > curE {
			curE = c.end
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}

// writeSpans writes every span as one tab-separated line: name, request
// ID, sub-operation ID, start and end (ns since the run's base), parent.
func writeSpans(path string, spans []span, fanout bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tsub\tstart_ns\tend_ns\tparent")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%s\n", spanNames[s.kind], s.id, s.sub, s.start, s.end, parentName(s.kind, fanout))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
