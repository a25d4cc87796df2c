package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accuracytrader/internal/breaker"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/stats"
)

// Transport carries a Fanout's sub-operations to its components. The
// in-process Cluster runs them on mailbox workers; netsvc's Aggregator
// sends them over pooled sockets.
type Transport interface {
	// Run executes one attempt on component a.Comp and reports its
	// outcome through a.Report exactly once, possibly before returning.
	Run(a Attempt)
	// QueueDepth returns the sub-operations outstanding on one
	// component: the load signal a RouteFunc reads.
	QueueDepth(comp int) int
}

// Outcome is a transport's report on one attempt. What counts as
// breaker evidence, and which failures another component could still
// answer, depend on the transport's failure domain, so the transport
// says.
type Outcome struct {
	Value   interface{}
	Err     error
	Skipped bool // the component declined: the propagated budget was gone
	Replied bool // the component answered: proof of life and a latency sample
	Fault   bool // failure evidence against the component
	Retry   bool // another component could still answer
}

// Attempt is one placement of a sub-operation on a component: its
// primary, a retry of it, or a hedge replica.
type Attempt struct {
	Subset int
	Comp   int

	op      *subop
	start   time.Time
	retries int
	replica bool
	probe   bool // the attempt holds its component's half-open probe slot
}

// Context returns the Call's context (it carries the Call deadline).
func (a Attempt) Context() context.Context { return a.op.call.ctx }

// Payload returns the Call's payload.
func (a Attempt) Payload() interface{} { return a.op.call.payload }

// Done reports whether the sub-operation is already resolved — another
// attempt won or the gather moved on — so running it would be wasted.
func (a Attempt) Done() bool { return a.op.done.Load() }

// Report resolves the attempt with its outcome.
func (a Attempt) Report(o Outcome) { a.op.call.f.resolve(a, o) }

// FanoutConfig is what a runtime hands its Fanout besides the transport.
// Zero Deadline, HedgeFloor and ReplicaOf take the Options defaults.
type FanoutConfig struct {
	Policy      Policy
	Deadline    time.Duration
	HedgeFloor  time.Duration
	ReplicaOf   func(subset, n int) int
	RetryBudget int // re-dispatches of a retryable primary failure
	Breaker     breaker.Config
	// OnBreaker observes every component breaker transition.
	OnBreaker func(comp int, s breaker.State)
	// Metrics receives the <Prefix>_* counters, histogram and gauges;
	// nil uses a private registry. Labels[i] names component i in the
	// breaker series (default comp="i").
	Metrics *obs.Registry
	Prefix  string
	Labels  []string
}

// Fanout is the gather core of both fan-out runtimes: placement with
// open-breaker eviction, per-component breakers, the WaitAll /
// PartialGather / Hedged gather loop, the P² hedge trigger, the retry
// budget, and the counters. A Transport moves the sub-operations.
type Fanout struct {
	t     Transport
	depth func(comp int) int
	n     int
	cfg   FanoutConfig
	brs   []*breaker.Breaker

	mu     sync.Mutex
	route  RouteFunc
	closed bool
	calls  sync.WaitGroup

	// Streaming quantile estimators keep memory constant however long
	// the fan-out serves. subOps stays a plain in-lock int: the hedge
	// estimate cadence (stats.HedgeEstimateDue) needs the exact count.
	estMu   sync.Mutex
	p95est  *stats.P2Quantile
	p999est *stats.P2Quantile
	subOps  int

	p95us    atomic.Uint64 // cached hedge trigger, in microseconds
	inflight atomic.Int64

	hedges, retries, faults, subOpsC *obs.Counter
	latMs                            *obs.Histogram
}

// NewFanout builds the core for n components reached through t.
func NewFanout(t Transport, n int, cfg FanoutConfig) *Fanout {
	if cfg.Deadline <= 0 {
		cfg.Deadline = time.Second
	}
	if cfg.HedgeFloor <= 0 {
		cfg.HedgeFloor = time.Millisecond
	}
	if cfg.ReplicaOf == nil {
		cfg.ReplicaOf = func(subset, n int) int { return (subset + 1) % n }
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := func(name string) string { return cfg.Prefix + "_" + name }
	f := &Fanout{
		t: t, depth: t.QueueDepth, n: n, cfg: cfg,
		p95est:  stats.NewP2Quantile(0.95),
		p999est: stats.NewP2Quantile(0.999),
		hedges:  reg.Counter(m("hedges_total")),
		retries: reg.Counter(m("retries_total")),
		faults:  reg.Counter(m("faults_total")),
		subOpsC: reg.Counter(m("subops_total")),
		latMs:   reg.Histogram(m("subop_latency_ms"), obs.DefaultLatencyBuckets()),
	}
	f.p95us.Store(uint64(cfg.HedgeFloor / time.Microsecond))
	reg.GaugeFunc(m("inflight"), func() float64 { return float64(f.inflight.Load()) })
	for i := 0; i < n; i++ {
		comp, label := i, fmt.Sprintf(`comp="%d"`, i)
		if i < len(cfg.Labels) {
			label = cfg.Labels[i]
		}
		var transitions [3]*obs.Counter
		for s, name := range [3]string{breaker.Closed: "closed", breaker.Open: "open", breaker.HalfOpen: "half_open"} {
			transitions[s] = reg.Counter(fmt.Sprintf(`%s{%s,state=%q}`, m("breaker_transitions_total"), label, name))
		}
		bcfg := cfg.Breaker
		userHook := bcfg.OnStateChange
		bcfg.OnStateChange = func(s breaker.State) {
			transitions[s].Inc()
			if cfg.OnBreaker != nil {
				cfg.OnBreaker(comp, s)
			}
			if userHook != nil {
				userHook(s)
			}
		}
		br := breaker.New(bcfg)
		f.brs = append(f.brs, br)
		reg.GaugeFunc(fmt.Sprintf(`%s{%s}`, m("breaker_state"), label), func() float64 { return float64(br.State()) })
	}
	return f
}

// subop is one subset's sub-operation within a Call, shared by its
// primary, retries and replica.
type subop struct {
	call   *call
	subset int
	target int // component the primary was placed on
	done   atomic.Bool
	hedged atomic.Bool
	timer  *time.Timer
}

type call struct {
	f        *Fanout
	ctx      context.Context
	deadline time.Time
	payload  interface{}
	tr       *obs.Trace
	reply    chan SubResult
	ops      []subop
}

// Call fans the payload out to every component and gathers sub-results
// according to the policy. The returned slice always has one entry per
// subset, in subset order; skipped or failed sub-operations carry
// Err/Skipped.
func (f *Fanout) Call(ctx context.Context, payload interface{}) ([]SubResult, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	f.calls.Add(1)
	route := f.route
	f.mu.Unlock()
	defer f.calls.Done()
	f.inflight.Add(1)
	defer f.inflight.Add(-1)
	start := time.Now()
	dl, ok := ctx.Deadline()
	if !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.cfg.Deadline)
		defer cancel()
		dl, _ = ctx.Deadline()
	}
	c := &call{f: f, ctx: ctx, deadline: dl, payload: payload, tr: obs.TraceFrom(ctx),
		reply: make(chan SubResult, f.n), ops: make([]subop, f.n)}
	for i := range c.ops {
		op := &c.ops[i]
		op.call, op.subset = c, i
		comp := i
		if route != nil {
			if t := route(i, f.n, f.depth); t >= 0 && t < f.n {
				comp = t
			}
		}
		op.target = f.dispatch(op, comp, 0)
		if f.cfg.Policy == Hedged && !op.done.Load() {
			op.timer = time.AfterFunc(f.EstimatedP95(), func() { f.hedge(op) })
		}
	}
	defer func() {
		for i := range c.ops {
			if t := c.ops[i].timer; t != nil {
				t.Stop()
			}
		}
	}()

	out := make([]SubResult, f.n)
	remaining := f.n
	var cut <-chan time.Time
	if f.cfg.Policy == PartialGather {
		t := time.NewTimer(f.cfg.Deadline - time.Since(start))
		defer t.Stop()
		cut = t.C
	}
	done := ctx.Done()
	for remaining > 0 {
		select {
		case r := <-c.reply:
			out[r.Subset] = r
			remaining--
		case <-cut:
			// Partial execution: compose without the stragglers. Their
			// components keep working (wasted computation, as in the
			// paper); the done flags drop their late replies.
			remaining -= c.abandon(out, nil, true)
			cut = nil
		case <-done:
			// Deadline expiry indicts the components; caller
			// cancellation does not.
			err := ctx.Err()
			remaining -= c.abandon(out, err, errors.Is(err, context.DeadlineExceeded))
			done, cut = nil, nil
		}
	}
	return out, nil
}

// abandon resolves every pending sub-operation as skipped with err and
// returns how many it resolved. indict counts each as failure evidence
// against the component its primary was placed on: a stalled or
// partitioned component produces no other.
func (c *call) abandon(out []SubResult, err error, indict bool) int {
	k := 0
	for i := range c.ops {
		op := &c.ops[i]
		if !op.done.CompareAndSwap(false, true) {
			continue // resolved; its reply is on the way
		}
		out[i] = SubResult{Subset: i, Err: err, Skipped: true, Hedged: op.hedged.Load()}
		k++
		if indict {
			c.f.fault(c.tr, op.target, i)
		}
	}
	return k
}

// dispatch places a primary attempt (or a retry) of op on comp and
// returns the component it went to. An open-breaker component is
// evicted in favour of the next healthy one; a cooled-down breaker
// admits the attempt as its half-open probe.
func (f *Fanout) dispatch(op *subop, comp, retries int) int {
	admitted, probe := f.admit(comp)
	if !admitted {
		if alt := f.nextHealthy(comp); alt != comp {
			comp = alt
			admitted, probe = f.admit(comp)
		}
	}
	a := Attempt{Subset: op.subset, Comp: comp, op: op, start: time.Now(), retries: retries, probe: probe}
	if admitted {
		f.t.Run(a)
	} else {
		f.resolve(a, Outcome{Err: ErrComponentDown})
	}
	return comp
}

// hedge issues op's replica when it is still unanswered at the trigger.
func (f *Fanout) hedge(op *subop) {
	if op.done.Load() {
		return
	}
	rc := f.cfg.ReplicaOf(op.subset, f.n)
	if !f.healthy(rc) {
		// Hedging into an open breaker buys nothing.
		rc = f.nextHealthy(rc)
		if !f.healthy(rc) {
			return
		}
	}
	if rc == op.target {
		// The replica would queue behind the very sub-operation it hedges.
		return
	}
	// Mark before running so a replica that wins at once carries the flag.
	op.hedged.Store(true)
	f.hedges.Inc()
	op.call.tr.Add(obs.SpanHedge, int32(op.subset), time.Now(), 0, int64(rc))
	f.t.Run(Attempt{Subset: op.subset, Comp: rc, op: op, start: time.Now(), replica: true})
}

// resolve folds one attempt's outcome into its component's breaker, the
// estimators, and — first outcome wins — the Call's reply.
func (f *Fanout) resolve(a Attempt, o Outcome) {
	op, c := a.op, a.op.call
	lat := time.Since(a.start)
	switch {
	case o.Fault:
		f.fault(c.tr, a.Comp, a.Subset)
	case o.Replied:
		f.brs[a.Comp].Success()
	case a.probe:
		// The probe never reached the component; release the slot.
		f.brs[a.Comp].Fail()
	}
	if o.Replied {
		f.sample(lat)
	}
	if o.Err != nil {
		if a.replica {
			return // a failed replica never displaces its primary
		}
		if o.Retry && a.retries < f.cfg.RetryBudget && !op.done.Load() && time.Now().Before(c.deadline) {
			next := a.Comp
			if !f.healthy(next) {
				next = f.nextHealthy(next)
			}
			if f.healthy(next) {
				f.retries.Inc()
				c.tr.Add(obs.SpanRetry, int32(a.Subset), time.Now(), 0, int64(next))
				f.dispatch(op, next, a.retries+1)
				return
			}
		}
	}
	if op.done.CompareAndSwap(false, true) {
		if o.Err == nil && !o.Skipped {
			// One sub-op span per answered subset: the winning reply's.
			c.tr.Add(obs.SpanSubOp, int32(a.Subset), a.start, lat, int64(a.Comp))
		}
		c.reply <- SubResult{Subset: a.Subset, Value: o.Value, Err: o.Err, Skipped: o.Skipped, Latency: lat, Hedged: op.hedged.Load()}
	}
}

// admit asks comp's breaker to accept one attempt. probe reports that
// the admission claimed the half-open probe slot.
func (f *Fanout) admit(comp int) (admitted, probe bool) {
	if f.healthy(comp) {
		return true, false
	}
	if f.brs[comp].Allow() {
		return true, true
	}
	return false, false
}

func (f *Fanout) healthy(comp int) bool { return f.brs[comp].State() == breaker.Closed }

// nextHealthy returns the first other component after from (wrapping)
// whose breaker is closed, or from itself when no other is.
func (f *Fanout) nextHealthy(from int) int {
	for k := 1; k < f.n; k++ {
		if i := (from + k) % f.n; f.healthy(i) {
			return i
		}
	}
	return from
}

func (f *Fanout) fault(tr *obs.Trace, comp, subset int) {
	f.faults.Inc()
	if f.brs[comp].Fail() {
		tr.Add(obs.SpanBreakerTrip, int32(subset), time.Now(), 0, int64(comp))
	}
}

// Fault records failure evidence against comp found outside a Call,
// such as a refused redial.
func (f *Fanout) Fault(comp int) { f.fault(nil, comp, -1) }

func (f *Fanout) sample(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	f.subOpsC.Inc()
	f.latMs.Observe(ms)
	f.estMu.Lock()
	f.subOps++
	f.p95est.Add(ms)
	f.p999est.Add(ms)
	// Cold-start guard and warm-phase cadence (stats.HedgeEstimateDue):
	// until the P² markers are meaningful the trigger holds the floor.
	if stats.HedgeEstimateDue(f.subOps) {
		p := f.p95est.Value()
		if floor := float64(f.cfg.HedgeFloor) / float64(time.Millisecond); p < floor {
			p = floor
		}
		f.p95us.Store(uint64(p * 1000))
	}
	f.estMu.Unlock()
}

// SetRouter injects the placement policy of subsequent Calls; nil
// restores home placement (subset i on component i).
func (f *Fanout) SetRouter(route RouteFunc) {
	f.mu.Lock()
	f.route = route
	f.mu.Unlock()
}

// Inflight returns the number of Calls currently executing.
func (f *Fanout) Inflight() int { return int(f.inflight.Load()) }

// EstimatedP95 returns the streaming 95th-percentile sub-operation
// latency estimate: the hedge trigger delay.
func (f *Fanout) EstimatedP95() time.Duration {
	return time.Duration(f.p95us.Load()) * time.Microsecond
}

// Deadline returns the call deadline.
func (f *Fanout) Deadline() time.Duration { return f.cfg.Deadline }

// Breaker returns one component's circuit breaker.
func (f *Fanout) Breaker(comp int) *breaker.Breaker { return f.brs[comp] }

// OpenBreakers returns the components whose breaker is not closed.
func (f *Fanout) OpenBreakers() []int {
	var open []int
	for i := range f.brs {
		if !f.healthy(i) {
			open = append(open, i)
		}
	}
	return open
}

// Stats returns a snapshot of the sub-operation statistics. P999Ms is
// a streaming P² estimate, not an exact percentile.
func (f *Fanout) Stats() Stats {
	var opens int64
	for _, b := range f.brs {
		opens += b.Opens()
	}
	f.estMu.Lock()
	defer f.estMu.Unlock()
	st := Stats{SubOps: f.subOps, Hedges: f.hedges.Value(), BreakerOpens: opens}
	if st.SubOps > 0 {
		st.P999Ms = f.p999est.Value()
	}
	return st
}

// Failures returns the cumulative retries and faults.
func (f *Fanout) Failures() (retries, faults int64) {
	return f.retries.Value(), f.faults.Value()
}

// Close makes later Calls return ErrClosed and waits for the in-flight
// ones; the runtime tears its transport down afterwards.
func (f *Fanout) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.calls.Wait()
}
