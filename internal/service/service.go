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
)

// Handler processes one sub-operation against one data subset. Handlers
// must be safe for concurrent use: under hedging, the same subset's
// handler may run on another component's worker.
type Handler func(ctx context.Context, payload interface{}) (interface{}, error)

// Policy selects the gather behaviour of Call.
type Policy int

// Gather policies (see package comment).
const (
	WaitAll Policy = iota
	PartialGather
	Hedged
)

// Options configures a Cluster.
type Options struct {
	// QueueLen bounds each component's mailbox (default 1024). A full
	// mailbox makes enqueues fail fast, surfacing overload instead of
	// buffering it invisibly.
	QueueLen int
	// Deadline bounds gathering for PartialGather (and is the default
	// Call timeout for the other policies; default 1s).
	Deadline time.Duration
	// HedgeFloor is the minimum hedge delay before the p95 estimator has
	// warmed up (default 1ms).
	HedgeFloor time.Duration
	// ReplicaOf maps a subset to the component that executes its hedged
	// replica (default: next component).
	ReplicaOf func(subset, n int) int
	// Metrics is the observability registry the cluster's counters live
	// in (service_subops_total, service_hedges_total, and the
	// service_subop_latency_ms histogram). Nil uses a private registry;
	// Stats() is unaffected either way.
	Metrics *obs.Registry
	// Breaker configures the per-component circuit breakers, fed by
	// every executed sub-operation on that component: a handler error
	// is a fault. Zero fields take the breaker package defaults.
	Breaker breaker.Config
}

// SubResult is one component's reply.
type SubResult struct {
	Subset  int
	Value   interface{}
	Err     error
	Latency time.Duration
	Skipped bool // PartialGather: deadline passed before the reply
	Hedged  bool // Hedged: a replica was issued for this sub-operation
}

// Complete reports whether every sub-result was answered: no errors,
// nothing skipped, a value present. Result caches store only complete
// fan-outs — a partial composition's accuracy tag would overstate what
// the entry actually contains.
func Complete(subs []SubResult) bool {
	for i := range subs {
		if subs[i].Err != nil || subs[i].Skipped || subs[i].Value == nil {
			return false
		}
	}
	return true
}

// Snapshot returns a cache-ready copy of sub-results holding only the
// durable fields (Subset, Value). Latency and the hedge flag are
// per-execution transport facts that must not replay on cache hits.
func Snapshot(subs []SubResult) []SubResult {
	out := make([]SubResult, len(subs))
	for i := range subs {
		out[i] = SubResult{Subset: subs[i].Subset, Value: subs[i].Value}
	}
	return out
}

// RouteFunc picks the component that executes a subset's sub-operation.
// It receives the subset, the component count, and a live queue-depth
// probe, and must return a component in [0, n). Handlers are safe for
// concurrent use (see Handler), so any component can serve any subset.
type RouteFunc func(subset, n int, queueDepth func(comp int) int) int

// ErrQueueFull is reported for a sub-operation its component refused
// because its queue (mailbox, or outstanding window) was full.
var ErrQueueFull = errors.New("service: component queue full")

// ErrComponentDown is reported for a sub-operation refused fast because
// the target component's circuit breaker is open and no healthy
// component could take the placement.
var ErrComponentDown = errors.New("service: component circuit open")

// ErrClosed is returned by Call after Close.
var ErrClosed = errors.New("service: fan-out closed")

// Stats reports fan-out counters.
type Stats struct {
	SubOps       int   // replies received, every one a latency sample
	Hedges       int64 // replicas issued
	BreakerOpens int64 // cumulative breaker trips across components
	P999Ms       float64
}

// compKey is the context key carrying the executing component's index
// to handlers.
type compKey struct{}

// ComponentFrom returns the index of the component whose worker is
// executing the current sub-operation. Under hedging the replica runs
// on a different component than the primary, so handlers modeling
// per-machine effects (co-located interference, cache locality) can
// key on the executor rather than the subset. ok is false outside a
// cluster worker.
func ComponentFrom(ctx context.Context) (comp int, ok bool) {
	comp, ok = ctx.Value(compKey{}).(int)
	return comp, ok
}

// Cluster is the in-process fan-out runtime: the Fanout core over one
// mailbox worker goroutine per component.
type Cluster struct {
	core     *Fanout
	handlers []Handler
	comps    []*component
	queueLen int
	quit     chan struct{}
	stop     sync.Once
	wg       sync.WaitGroup
}

type component struct {
	mailbox chan Attempt
	busy    atomic.Bool // the worker is executing an attempt right now
}

// New starts a cluster with one worker per handler. handlers[i] owns data
// subset i.
func New(handlers []Handler, policy Policy, opts Options) (*Cluster, error) {
	if len(handlers) == 0 {
		return nil, fmt.Errorf("service: no handlers")
	}
	if opts.QueueLen <= 0 {
		opts.QueueLen = 1024
	}
	cl := &Cluster{handlers: handlers, queueLen: opts.QueueLen, quit: make(chan struct{})}
	for i := range handlers {
		c := &component{mailbox: make(chan Attempt, opts.QueueLen)}
		cl.comps = append(cl.comps, c)
		cl.wg.Add(1)
		go cl.worker(i, c)
	}
	cl.core = NewFanout(mailboxes{cl}, len(handlers), FanoutConfig{
		Policy: policy, Deadline: opts.Deadline, HedgeFloor: opts.HedgeFloor,
		ReplicaOf: opts.ReplicaOf, Breaker: opts.Breaker,
		Metrics: opts.Metrics, Prefix: "service",
	})
	return cl, nil
}

// worker drains one component's mailbox sequentially — the single-server
// FIFO queue of the model. Mailboxes are never closed, so a hedge
// racing Close can still enqueue harmlessly.
func (cl *Cluster) worker(idx int, c *component) {
	defer cl.wg.Done()
	for {
		select {
		case <-cl.quit:
			return
		case a := <-c.mailbox:
			if a.Done() {
				a.Report(Outcome{}) // the other replica already answered
				continue
			}
			if a.Context().Err() != nil {
				// The budget is gone: answer skipped without running, as
				// a component server does.
				a.Report(Outcome{Skipped: true, Replied: true})
				continue
			}
			c.busy.Store(true)
			v, err := cl.handlers[a.Subset](context.WithValue(a.Context(), compKey{}, idx), a.Payload())
			c.busy.Store(false)
			// The handler is the machine: its error is the component
			// failing, whichever subset it ran — unless the Call's own
			// context ended it, which the gather accounts for.
			fault := err != nil && a.Context().Err() == nil
			a.Report(Outcome{Value: v, Err: err, Replied: true, Fault: fault})
		}
	}
}

// mailboxes is the Cluster's transport.
type mailboxes struct{ cl *Cluster }

func (m mailboxes) Run(a Attempt) {
	select {
	case m.cl.comps[a.Comp].mailbox <- a:
	default:
		a.Report(Outcome{Err: ErrQueueFull})
	}
}

func (m mailboxes) QueueDepth(comp int) int { return m.cl.QueueDepth(comp) }

// Call fans the payload out to every component and gathers sub-results
// according to the cluster policy (see Fanout.Call).
func (cl *Cluster) Call(ctx context.Context, payload interface{}) ([]SubResult, error) {
	return cl.core.Call(ctx, payload)
}

// SetRouter injects a routing policy used by subsequent Calls to place
// each sub-operation on a component. A nil route restores the default
// (subset i on component i). Safe to call while the cluster serves.
func (cl *Cluster) SetRouter(route RouteFunc) { cl.core.SetRouter(route) }

// Components returns the fan-out width.
func (cl *Cluster) Components() int { return len(cl.comps) }

// QueueDepth returns the number of jobs outstanding on one component:
// those waiting in its mailbox plus the one its worker is executing.
// This is the load signal admission and routing policies act on; the
// value is a point-in-time sample.
func (cl *Cluster) QueueDepth(comp int) int {
	c := cl.comps[comp]
	d := len(c.mailbox)
	if c.busy.Load() {
		d++
	}
	return d
}

// QueueCap returns each mailbox's bound (Options.QueueLen).
func (cl *Cluster) QueueCap() int { return cl.queueLen }

// Inflight returns the number of Calls currently executing.
func (cl *Cluster) Inflight() int { return cl.core.Inflight() }

// EstimatedP95 returns the streaming 95th-percentile sub-operation
// latency estimate (the hedge trigger delay).
func (cl *Cluster) EstimatedP95() time.Duration { return cl.core.EstimatedP95() }

// Deadline returns the configured call deadline (Options.Deadline).
func (cl *Cluster) Deadline() time.Duration { return cl.core.Deadline() }

// BreakerState returns one component's circuit-breaker state.
func (cl *Cluster) BreakerState(comp int) breaker.State { return cl.core.Breaker(comp).State() }

// OpenBreakers returns the indices of components whose breaker is not
// closed — the degraded-health signal.
func (cl *Cluster) OpenBreakers() []int { return cl.core.OpenBreakers() }

// Stats returns a snapshot of the recorded sub-operation statistics.
// The counters live in the Options.Metrics registry (or a private one),
// so the same numbers are one Prometheus scrape away.
func (cl *Cluster) Stats() Stats { return cl.core.Stats() }

// Close shuts the cluster down: it waits for in-flight Calls, then stops
// the workers. Call returns ErrClosed afterwards; Close is idempotent.
func (cl *Cluster) Close() {
	cl.core.Close()
	cl.stop.Do(func() {
		close(cl.quit)
		cl.wg.Wait()
	})
}
