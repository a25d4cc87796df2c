package netsvc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"accuracytrader/internal/breaker"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
)

// The failure sentinels are the service package's: one per condition,
// whichever runtime reports it.
var (
	// ErrClosed is returned by Aggregator.Call after Close.
	ErrClosed = service.ErrClosed
	// ErrQueueFull is reported for a sub-operation shed because the
	// target component's outstanding window, or its server's queue, was
	// full.
	ErrQueueFull = service.ErrQueueFull
	// ErrPeerDown is reported for a sub-operation refused fast because
	// the target component's circuit breaker is not closed (or its dial
	// backoff window has not elapsed): the peer is known-unhealthy, so
	// the sub-operation fails immediately instead of waiting out a
	// timeout and is eligible for rerouting under the retry budget.
	ErrPeerDown = service.ErrComponentDown
)

// AggregatorOptions configures an Aggregator.
type AggregatorOptions struct {
	// Policy selects the gather behaviour — the same policies as the
	// in-process runtime (service.WaitAll, service.PartialGather,
	// service.Hedged), executed over sockets.
	Policy service.Policy
	// Deadline bounds gathering for PartialGather and is the default
	// Call timeout otherwise (default 1s).
	Deadline time.Duration
	// MaxOutstanding caps in-flight sub-operations per component — the
	// QueueCap/QueueDepth bound the frontend's load snapshot and queue
	// watermarks act on (default 128).
	MaxOutstanding int
	// ConnsPerPeer is the connection-pool width per component (default
	// 2). Requests are multiplexed by ID, so the pool mainly spreads
	// TCP-level head-of-line blocking.
	ConnsPerPeer int
	// HedgeFloor is the minimum hedge delay before the p95 estimator
	// has warmed up (default 1ms).
	HedgeFloor time.Duration
	// ReplicaOf maps a subset to the component executing its hedged
	// replica (default: next component).
	ReplicaOf func(subset, n int) int
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// MaxFrame bounds accepted reply frames (default wire.MaxFrame).
	MaxFrame int
	// Dial overrides the transport dial (default net.DialTimeout over
	// TCP) — the seam fault injection and connection tests hook.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Breaker configures the per-peer circuit breakers; zero fields
	// take the breaker package defaults (trip after 3 consecutive
	// failures, 200ms cooldown).
	Breaker breaker.Config
	// RedialBase and RedialMax bound the capped exponential dial
	// backoff with jitter that replaces immediate redialing (defaults
	// 10ms and 500ms). RedialMax also bounds how long a healed peer
	// waits for its next background probe.
	RedialBase time.Duration
	RedialMax  time.Duration
	// RetryBudget caps how many times one sub-operation may be
	// re-dispatched onto a healthy peer after a peer-level failure
	// (dial error, connection failure, open breaker), always within
	// the propagated deadline. Default 1; negative disables retries.
	RetryBudget int
	// Seed drives backoff jitter deterministically (default 1).
	Seed uint64
	// Metrics, when set, receives the netsvc_* fan-out series: per-peer
	// breaker state gauges and transition counters, hedge, retry and
	// fault counters, and the sub-operation latency histogram.
	Metrics *obs.Registry
}

func (o AggregatorOptions) withDefaults() AggregatorOptions {
	if o.MaxOutstanding <= 0 {
		o.MaxOutstanding = 128
	}
	if o.ConnsPerPeer <= 0 {
		o.ConnsPerPeer = 2
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = wire.MaxFrame
	}
	if o.Dial == nil {
		o.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if o.RedialBase <= 0 {
		o.RedialBase = 10 * time.Millisecond
	}
	if o.RedialMax <= 0 {
		o.RedialMax = 500 * time.Millisecond
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 1
	}
	if o.RetryBudget < 0 {
		o.RetryBudget = 0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// AggregatorStats are the aggregator's scatter/gather counters.
type AggregatorStats struct {
	SubOps       int   // sub-replies received
	Hedges       int64 // replicas issued
	Reconnects   int64 // re-dials after a connection failure
	Retries      int64 // sub-operations re-dispatched after peer failure
	Faults       int64 // peer-level failures (dial, conn, timeout)
	BreakerOpens int64 // cumulative breaker trips across peers
	P999Ms       float64
}

// Aggregator is the scatter/gather client over n component servers:
// the service.Fanout gather core over a socket transport, implementing
// frontend.Backend so the accuracy-aware frontend drives it unchanged.
type Aggregator struct {
	addrs  []string
	opts   AggregatorOptions
	peers  []*peer
	core   *service.Fanout
	nextID atomic.Uint64

	// ingestRR round-robins unrouted append batches across components.
	ingestRR atomic.Uint64
	mIngests *obs.Counter
}

// NewAggregator returns an aggregator over one address per component.
// Connections are dialed lazily; use WaitReady to block until every
// component answers.
func NewAggregator(addrs []string, opts AggregatorOptions) (*Aggregator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("netsvc: no component addresses")
	}
	opts = opts.withDefaults()
	a := &Aggregator{addrs: addrs, opts: opts}
	if opts.Metrics != nil {
		a.mIngests = opts.Metrics.Counter("netsvc_ingest_forwarded_total")
	}
	labels := make([]string, len(addrs))
	for i, addr := range addrs {
		a.peers = append(a.peers, &peer{
			agg:     a,
			addr:    addr,
			idx:     i,
			slots:   make([]*peerConn, opts.ConnsPerPeer),
			backoff: breaker.NewBackoff(opts.RedialBase, opts.RedialMax, opts.Seed+uint64(i)*0x9e3779b97f4a7c15),
			closeCh: make(chan struct{}),
		})
		labels[i] = fmt.Sprintf("peer=%q", addr)
	}
	a.core = service.NewFanout(sockets{a}, len(addrs), service.FanoutConfig{
		Policy: opts.Policy, Deadline: opts.Deadline, HedgeFloor: opts.HedgeFloor,
		ReplicaOf: opts.ReplicaOf, RetryBudget: opts.RetryBudget, Breaker: opts.Breaker,
		// A tripped breaker starts the background prober even when the
		// pooled connections are still nominally alive (a stalled or
		// partitioned peer), so recovery never depends on request
		// traffic.
		OnBreaker: func(comp int, s breaker.State) {
			if s == breaker.Open {
				a.peers[comp].kickReconnector()
			}
		},
		Metrics: opts.Metrics, Prefix: "netsvc", Labels: labels,
	})
	return a, nil
}

// WaitReady dials every component until it answers or the timeout
// elapses — the race-free way to start an aggregator before its
// component processes are certain to be listening.
func (a *Aggregator) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, p := range a.peers {
		for {
			_, err := p.conn()
			if err == nil {
				break
			}
			if !time.Now().Before(deadline) {
				return fmt.Errorf("netsvc: component %s not ready: %w", p.addr, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return nil
}

// Components returns the fan-out width.
func (a *Aggregator) Components() int { return len(a.peers) }

// QueueCap returns the per-component outstanding window
// (AggregatorOptions.MaxOutstanding).
func (a *Aggregator) QueueCap() int { return a.opts.MaxOutstanding }

// QueueDepth returns the sub-operations currently outstanding on one
// component — the aggregator-side load signal admission and routing
// policies act on.
func (a *Aggregator) QueueDepth(comp int) int {
	return int(a.peers[comp].outstanding.Load())
}

// Inflight returns the number of Calls currently executing.
func (a *Aggregator) Inflight() int { return a.core.Inflight() }

// EstimatedP95 returns the streaming 95th-percentile sub-operation
// latency estimate (the hedge trigger delay).
func (a *Aggregator) EstimatedP95() time.Duration { return a.core.EstimatedP95() }

// Deadline returns the configured call deadline.
func (a *Aggregator) Deadline() time.Duration { return a.core.Deadline() }

// Ingest forwards one append batch to its owning component and waits
// for the acknowledgement. Unlike query sub-operations, an append is
// never rerouted to a healthier peer — the rows have exactly one home
// shard, and staging them elsewhere would silently fork the dataset —
// so an unhealthy owner rejects the batch immediately (IngestRejected)
// and the producer retries later. A request with Subset < 0 is
// assigned a component round-robin. The returned reply always carries
// the caller's ID and the subset the batch landed on; it is never nil.
func (a *Aggregator) Ingest(ctx context.Context, req *wire.IngestRequest) *wire.IngestReply {
	fail := func(status uint8, msg string) *wire.IngestReply {
		return &wire.IngestReply{ID: req.ID, Subset: req.Subset, Status: status, Err: msg}
	}
	n := len(a.peers)
	sub := *req
	sub.ID = a.nextID.Add(1)
	if sub.Subset < 0 {
		sub.Subset = int32((a.ingestRR.Add(1) - 1) % uint64(n))
	}
	target := int(sub.Subset) % n
	p := a.peers[target]
	if !p.healthy() {
		return fail(wire.IngestRejected, ErrPeerDown.Error())
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.core.Deadline())
		defer cancel()
	}
	type ack struct {
		rep *wire.IngestReply
		err error
	}
	// Buffered so a late delivery after the deadline never blocks the
	// connection's read loop.
	ch := make(chan ack, 1)
	p.sendIngest(&sub, func(rep *wire.IngestReply, err error) {
		select {
		case ch <- ack{rep, err}:
		default:
		}
	})
	select {
	case <-ctx.Done():
		return fail(wire.IngestErr, ctx.Err().Error())
	case got := <-ch:
		if got.err != nil {
			if !errors.Is(got.err, ErrClosed) && !errors.Is(got.err, ErrPeerDown) {
				a.core.Fault(target)
			}
			return fail(wire.IngestErr, got.err.Error())
		}
		p.br().Success()
		if a.mIngests != nil {
			a.mIngests.Inc()
		}
		out := *got.rep
		out.ID = req.ID
		out.Subset = sub.Subset
		return &out
	}
}

// SetRouter injects a routing policy used by subsequent Calls to place
// each sub-operation on a component; nil restores home placement.
func (a *Aggregator) SetRouter(route service.RouteFunc) { a.core.SetRouter(route) }

// OpenBreakers returns the addresses of peers whose circuit breaker is
// not closed — the degraded-health signal /healthz exposes.
func (a *Aggregator) OpenBreakers() []string {
	var open []string
	for _, i := range a.core.OpenBreakers() {
		open = append(open, a.addrs[i])
	}
	return open
}

// BreakerState returns one component's breaker state.
func (a *Aggregator) BreakerState(comp int) breaker.State {
	return a.peers[comp].br().State()
}

// Stats returns a snapshot of the aggregator's counters.
func (a *Aggregator) Stats() AggregatorStats {
	var reconnects int64
	for _, p := range a.peers {
		reconnects += p.reconnects.Load()
	}
	st := a.core.Stats()
	retries, faults := a.core.Failures()
	return AggregatorStats{
		SubOps:       st.SubOps,
		Hedges:       st.Hedges,
		Reconnects:   reconnects,
		Retries:      retries,
		Faults:       faults,
		BreakerOpens: st.BreakerOpens,
		P999Ms:       st.P999Ms,
	}
}

// Call fans the request template out to every component and gathers
// sub-results according to the gather policy. payload must be a
// *wire.Request with the payload fields set; each sub-operation gets
// its own ID, its subset, the absolute deadline from the context, and
// the frontend-selected SLO class and ladder level (read from the
// context via the frontend package's conventions). The returned slice
// has one entry per subset in subset order; Value holds the
// *wire.SubReply of answered sub-operations.
//
// Failure handling: sub-operations on a peer whose breaker is open
// fail fast with ErrPeerDown; peer-level failures are re-dispatched to
// a healthy peer while the retry budget and the propagated deadline
// allow; what still fails surfaces as an errored SubResult for the
// compose path's accuracy-aware degradation.
func (a *Aggregator) Call(ctx context.Context, payload interface{}) ([]service.SubResult, error) {
	tmpl, ok := payload.(*wire.Request)
	if !ok {
		return nil, fmt.Errorf("netsvc: Call payload must be *wire.Request, got %T", payload)
	}
	// The frontend's context values override the template's class and
	// level; without a frontend the request's own fields stand, so a
	// client-stamped SLO survives an aggregator that runs bare.
	base := *tmpl
	base.Seq = tmpl.ID // correlate sub-operations with their parent request
	if lv, ok := frontend.LevelFrom(ctx); ok {
		base.Level = int16(lv)
	}
	if s, ok := frontend.SLOFrom(ctx); ok {
		base.SLO, base.MinAccuracy = uint8(s.Kind), s.MinAccuracy
	}
	tr := obs.TraceFrom(ctx)
	base.Trace = tr.ID() // nil-safe: 0 propagates "untraced"
	subs, err := a.core.Call(ctx, &base)
	if err != nil {
		return nil, err
	}
	// Stitch the answered sub-replies' server-side spans under their
	// subsets, and fold their span costs and frame bytes into the
	// request's cost account (nil when attribution is off), so the front
	// server's closer sees the whole fan-out's usage.
	acct := cost.AccountFrom(ctx)
	if tr == nil && acct == nil {
		return subs, nil
	}
	for _, sr := range subs {
		rep, ok := sr.Value.(*wire.SubReply)
		if !ok {
			continue
		}
		for _, sp := range rep.Spans {
			kind := obs.SpanServerQueue
			if sp.Kind == wire.SpanExec {
				kind = obs.SpanServerExec
			}
			tr.AddRemote(kind, int32(sr.Subset), sp.Start, sp.Dur)
			if acct != nil {
				acct.Add(cost.Usage{CPUNs: sp.Cost.CPUNs, Scanned: sp.Cost.Scanned, QueueNs: sp.Cost.QueueNs, WireBytes: sp.Cost.WireBytes})
			}
		}
		if acct != nil {
			// The sub-reply frame's own bytes; the matching sub-request
			// frame was counted by the component server (the exec span's
			// WireBytes).
			acct.AddWireBytes(uint64(rep.FrameLen))
		}
	}
	return subs, nil
}

// Close waits for in-flight Calls, then tears down every connection;
// Call returns ErrClosed afterwards.
func (a *Aggregator) Close() {
	a.core.Close()
	for _, p := range a.peers {
		p.close()
	}
}

// sockets is the Aggregator's transport: an attempt is one request frame
// on a pooled connection to the component's server.
type sockets struct{ *Aggregator }

func (s sockets) Run(at service.Attempt) {
	p := s.peers[at.Comp]
	if p.outstanding.Add(1) > int64(s.opts.MaxOutstanding) {
		p.outstanding.Add(-1)
		at.Report(service.Outcome{Err: ErrQueueFull})
		return
	}
	sub := *at.Payload().(*wire.Request)
	sub.ID = s.nextID.Add(1)
	sub.Subset = int32(at.Subset)
	// The call deadline only ever tightens a deadline the request
	// already carries (a client-side l_spe): each hop propagates the
	// strictest absolute budget downward.
	if dl, ok := at.Context().Deadline(); ok && (sub.Deadline == 0 || dl.UnixNano() < sub.Deadline) {
		sub.Deadline = dl.UnixNano()
	}
	p.send(&sub, func(rep *wire.SubReply, err error) {
		p.outstanding.Add(-1)
		at.Report(outcomeOf(rep, err, at.Comp))
	})
}

// outcomeOf classifies one sub-operation delivery. Any decoded reply —
// OK, skipped, busy or error — proves the peer alive. A transport
// failure is a fault another peer could still answer, unless the
// request never left (closed aggregator, or a dial inside its backoff
// window).
func outcomeOf(rep *wire.SubReply, err error, comp int) service.Outcome {
	if err != nil {
		return service.Outcome{Err: err, Retry: true, Fault: !errors.Is(err, ErrClosed) && !errors.Is(err, ErrPeerDown)}
	}
	switch rep.Status {
	case wire.StatusOK:
		return service.Outcome{Value: rep, Replied: true}
	case wire.StatusSkipped:
		// The propagated budget is gone: any later reply would be past
		// the deadline too, so a replica's skip resolves the subset just
		// like a primary's.
		return service.Outcome{Skipped: true, Replied: true}
	case wire.StatusBusy:
		// A server-side shed is the same condition as the outstanding
		// window: report the sentinel so composed replies classify it
		// StatusBusy, not a generic error.
		return service.Outcome{Err: ErrQueueFull, Replied: true}
	default:
		return service.Outcome{Err: fmt.Errorf("netsvc: component %d: %s", comp, rep.Err), Replied: true}
	}
}

// peer is the connection pool plus failure-domain state for one
// component server: its circuit breaker, dial backoff, and background
// reconnector.
type peer struct {
	agg         *Aggregator
	addr        string
	idx         int
	outstanding atomic.Int64
	reconnects  atomic.Int64

	backoff      *breaker.Backoff
	reconnecting atomic.Bool
	closeCh      chan struct{}

	mu         sync.Mutex
	slots      []*peerConn
	next       int
	nextDialAt time.Time
	closed     bool
}

// br returns the peer's circuit breaker, held by the gather core.
func (p *peer) br() *breaker.Breaker { return p.agg.core.Breaker(p.idx) }

// healthy reports whether the peer's breaker admits normal traffic.
func (p *peer) healthy() bool { return p.br().State() == breaker.Closed }

func (p *peer) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// conn returns a live pooled connection, dialing a dead slot as
// needed. Dials are gated by the peer's capped exponential backoff:
// inside the backoff window conn fails fast with ErrPeerDown instead
// of hammering a refusing address once per request.
func (p *peer) conn() (*peerConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	i := p.next
	p.next = (p.next + 1) % len(p.slots)
	pc := p.slots[i]
	if pc != nil && !pc.isDead() {
		p.mu.Unlock()
		return pc, nil
	}
	// Prefer any other live slot over redialing (the background
	// reconnector may have installed a fresh connection already).
	for _, q := range p.slots {
		if q != nil && !q.isDead() {
			p.mu.Unlock()
			return q, nil
		}
	}
	if pc != nil {
		p.reconnects.Add(1)
	}
	if !p.nextDialAt.IsZero() && time.Now().Before(p.nextDialAt) {
		p.mu.Unlock()
		p.kickReconnector()
		return nil, ErrPeerDown
	}
	c, err := p.agg.opts.Dial(p.addr, p.agg.opts.DialTimeout)
	if err != nil {
		p.nextDialAt = time.Now().Add(p.backoff.Next())
		p.mu.Unlock()
		p.kickReconnector()
		return nil, err
	}
	p.backoff.Reset()
	p.nextDialAt = time.Time{}
	pc = p.newConn(c)
	p.slots[i] = pc
	p.mu.Unlock()
	go pc.readLoop(p.agg.opts.MaxFrame)
	return pc, nil
}

// newConn wraps an established transport connection. Caller holds p.mu
// and must start the read loop after unlocking.
func (p *peer) newConn(c net.Conn) *peerConn {
	return &peerConn{
		c:       c,
		pending: map[uint64]pending{},
		onDead:  p.kickReconnector,
	}
}

// kickReconnector starts the background reconnect/probe loop unless it
// is already running or the peer is closed. It is invoked on every
// connection death, failed dial, and breaker trip.
func (p *peer) kickReconnector() {
	if p.isClosed() {
		return
	}
	if !p.reconnecting.CompareAndSwap(false, true) {
		return
	}
	go p.reconnectLoop()
}

// reconnectLoop is the traffic-independent recovery path: it redials
// the peer on the capped backoff schedule, acting as the breaker's
// half-open prober, until a dial lands (connection installed, breaker
// closed, backoff reset) or the peer is closed. Dial outcomes feed the
// breaker, so a dead peer's breaker trips — and a healed peer's
// breaker re-closes — even with zero request traffic.
func (p *peer) reconnectLoop() {
	defer p.reconnecting.Store(false)
	t := time.NewTimer(0)
	defer t.Stop()
	for {
		d := p.backoff.Next()
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
		t.Reset(d)
		select {
		case <-p.closeCh:
			return
		case <-t.C:
		}
		if p.isClosed() {
			return
		}
		if !p.healthy() && !p.br().Allow() {
			// Still inside the cooldown; the backoff sleep above keeps
			// the loop from spinning.
			continue
		}
		c, err := p.agg.opts.Dial(p.addr, p.agg.opts.DialTimeout)
		if err != nil {
			p.agg.core.Fault(p.idx)
			continue
		}
		p.install(c)
		p.br().Success()
		p.backoff.Reset()
		return
	}
}

// install pools a successfully probed connection into a dead or empty
// slot.
func (p *peer) install(c net.Conn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return
	}
	idx := 0
	for i, q := range p.slots {
		if q == nil || q.isDead() {
			idx = i
			break
		}
	}
	pc := p.newConn(c)
	p.slots[idx] = pc
	p.nextDialAt = time.Time{}
	p.mu.Unlock()
	go pc.readLoop(p.agg.opts.MaxFrame)
}

// send transmits one sub-operation and registers its delivery callback
// (invoked exactly once: reply, connection failure, or close).
func (p *peer) send(sub *wire.Request, deliver func(*wire.SubReply, error)) {
	p.transmit(sub.ID, pending{sub: deliver}, wire.AppendRequestFrame(nil, sub))
}

// sendIngest is send for one append batch, on the ingest half of the
// multiplexed connection.
func (p *peer) sendIngest(sub *wire.IngestRequest, deliver func(*wire.IngestReply, error)) {
	p.transmit(sub.ID, pending{ingest: deliver}, wire.AppendIngestRequestFrame(nil, sub))
}

func (p *peer) transmit(id uint64, cb pending, frame []byte) {
	pc, err := p.conn()
	if err == nil && !pc.register(id, cb) {
		// The connection died between pooling and registration; one
		// retry against a fresh slot, then give up.
		if pc, err = p.conn(); err == nil && !pc.register(id, cb) {
			err = errors.New("netsvc: connection lost")
		}
	}
	if err != nil {
		cb.fail(err)
		return
	}
	pc.wmu.Lock()
	_, werr := pc.c.Write(frame)
	pc.wmu.Unlock()
	if werr != nil {
		pc.fail(werr)
	}
}

func (p *peer) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.closeCh)
	slots := append([]*peerConn(nil), p.slots...)
	p.mu.Unlock()
	for _, pc := range slots {
		if pc != nil {
			pc.fail(ErrClosed)
		}
	}
}

// peerConn is one multiplexed connection: concurrent requests are
// matched to replies by ID.
type peerConn struct {
	c      net.Conn
	onDead func() // kicks the owning peer's reconnector
	wmu    sync.Mutex

	pmu     sync.Mutex
	pending map[uint64]pending
	dead    bool
}

// pending is one registered delivery callback: a query sub-reply's or
// an ingest acknowledgement's (IDs are unique across both).
type pending struct {
	sub    func(*wire.SubReply, error)
	ingest func(*wire.IngestReply, error)
}

func (cb pending) fail(err error) {
	if cb.sub != nil {
		cb.sub(nil, err)
	} else if cb.ingest != nil {
		cb.ingest(nil, err)
	}
}

func (pc *peerConn) isDead() bool {
	pc.pmu.Lock()
	defer pc.pmu.Unlock()
	return pc.dead
}

func (pc *peerConn) register(id uint64, cb pending) bool {
	pc.pmu.Lock()
	defer pc.pmu.Unlock()
	if pc.dead {
		return false
	}
	pc.pending[id] = cb
	return true
}

// take removes and returns the callback registered under id.
func (pc *peerConn) take(id uint64) pending {
	pc.pmu.Lock()
	defer pc.pmu.Unlock()
	cb := pc.pending[id]
	delete(pc.pending, id)
	return cb
}

// readLoop dispatches reply frames to their pending callbacks until
// the connection fails.
func (pc *peerConn) readLoop(maxFrame int) {
	br := bufio.NewReader(pc.c)
	var buf []byte
	for {
		var err error
		buf, err = wire.ReadFrame(br, buf, maxFrame)
		if err != nil {
			pc.fail(err)
			return
		}
		// Query sub-replies and ingest acknowledgements share the
		// connection; the kind byte routes before payload decoding.
		kind, err := wire.FrameKind(buf)
		if err != nil {
			pc.fail(err)
			return
		}
		if kind == wire.FrameIngestReply {
			ack, err := wire.DecodeIngestReply(buf)
			if err != nil {
				pc.fail(err)
				return
			}
			if cb := pc.take(ack.ID); cb.ingest != nil {
				cb.ingest(ack, nil)
			}
			continue
		}
		rep, err := wire.DecodeSubReply(buf)
		if err != nil {
			pc.fail(err)
			return
		}
		if cb := pc.take(rep.ID); cb.sub != nil {
			cb.sub(rep, nil)
		}
	}
}

// fail marks the connection dead and fails every pending request
// exactly once.
func (pc *peerConn) fail(err error) {
	pc.pmu.Lock()
	if pc.dead {
		pc.pmu.Unlock()
		return
	}
	pc.dead = true
	pending := pc.pending
	pc.pending = nil
	pc.pmu.Unlock()
	pc.c.Close()
	if pc.onDead != nil && !errors.Is(err, ErrClosed) {
		pc.onDead()
	}
	for _, cb := range pending {
		cb.fail(fmt.Errorf("netsvc: connection failed: %w", err))
	}
}
