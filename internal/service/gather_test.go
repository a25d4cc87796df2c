package service_test

// The gather suite: every policy and failure-handling case runs on both
// fan-out transports — the in-process mailbox workers (service.Cluster)
// and loopback sockets (netsvc.Aggregator over netsvc.Server) — so the
// shared gather core is held to one behaviour whatever carries the
// sub-operations.

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/breaker"
	"accuracytrader/internal/faultinject"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/service"
	"accuracytrader/internal/stats"
	"accuracytrader/internal/wire"
)

// fanout is the surface both runtimes share.
type fanout interface {
	Call(ctx context.Context, payload interface{}) ([]service.SubResult, error)
	SetRouter(route service.RouteFunc)
	Inflight() int
	EstimatedP95() time.Duration
	BreakerState(comp int) breaker.State
	Close()
}

// gatherSpec configures one fan-out under test. Zero fields take the
// runtime defaults.
type gatherSpec struct {
	n          int
	policy     service.Policy
	deadline   time.Duration
	hedgeFloor time.Duration
	replicaOf  func(subset, n int) int
	queueLen   int // mailbox bound in process, outstanding window over sockets
	breaker    breaker.Config
	redial     time.Duration // socket dial backoff base and cap
	// exec runs whenever a sub-operation of subset executes on comp; a
	// non-nil error answers it with an application error.
	exec func(ctx context.Context, comp, subset int) error
}

// rig is one started fan-out.
type rig struct {
	fanout
	// stats returns the shared counters.
	stats func() service.Stats
	// trip puts a component into a failure that yields no late reply;
	// heal ends it.
	trip, heal func(comp int)
}

func (r *rig) call(t *testing.T, ctx context.Context) []service.SubResult {
	t.Helper()
	subs, err := r.Call(ctx, payload())
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

func payload() *wire.Request {
	return &wire.Request{
		Kind: wire.KindAgg, Subset: -1, SLO: wire.SLONone, Level: wire.NoLevel,
		Agg: &wire.AggRequest{Op: uint8(agg.Sum), Lo: 0, Hi: 1},
	}
}

func okReply() *wire.SubReply {
	return &wire.SubReply{
		Status: wire.StatusOK, Level: wire.NoLevel,
		Agg: &wire.AggResult{Sum: []float64{1}, Cnt: []float64{1}, SumVar: []float64{0}, CntVar: []float64{0}},
	}
}

var errTripped = errors.New("component tripped")

func startInproc(t *testing.T, s gatherSpec) *rig {
	t.Helper()
	down := make([]atomic.Bool, s.n)
	handlers := make([]service.Handler, s.n)
	for i := range handlers {
		subset := i
		handlers[i] = func(ctx context.Context, _ interface{}) (interface{}, error) {
			comp, _ := service.ComponentFrom(ctx)
			if down[comp].Load() {
				return nil, errTripped
			}
			if s.exec != nil {
				if err := s.exec(ctx, comp, subset); err != nil {
					return nil, err
				}
			}
			return okReply(), nil
		}
	}
	cl, err := service.New(handlers, s.policy, service.Options{
		QueueLen: s.queueLen, Deadline: s.deadline, HedgeFloor: s.hedgeFloor,
		ReplicaOf: s.replicaOf, Breaker: s.breaker,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return &rig{
		fanout: cl,
		stats:  cl.Stats,
		trip:   func(c int) { down[c].Store(true) },
		heal:   func(c int) { down[c].Store(false) },
	}
}

func startSockets(t *testing.T, s gatherSpec) *rig {
	t.Helper()
	addrs := make([]string, s.n)
	scripts := make([]*faultinject.Script, s.n)
	for i := range addrs {
		comp := i
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		scripts[i] = faultinject.NewScript(addrs[i], uint64(i+1))
		srv := netsvc.NewServer(func(ctx context.Context, req *wire.Request) *wire.SubReply {
			if s.exec != nil {
				if err := s.exec(ctx, comp, int(req.Subset)); err != nil {
					return &wire.SubReply{Status: wire.StatusErr, Level: wire.NoLevel, Err: err.Error()}
				}
			}
			return okReply()
		}, netsvc.ServerOptions{})
		go srv.Serve(scripts[i].WrapListener(l))
		t.Cleanup(srv.Close)
	}
	a, err := netsvc.NewAggregator(addrs, netsvc.AggregatorOptions{
		Policy: s.policy, Deadline: s.deadline, HedgeFloor: s.hedgeFloor,
		ReplicaOf: s.replicaOf, MaxOutstanding: s.queueLen, Breaker: s.breaker,
		RedialBase: s.redial, RedialMax: s.redial,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	if err := a.WaitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	return &rig{
		fanout: a,
		stats: func() service.Stats {
			st := a.Stats()
			return service.Stats{SubOps: st.SubOps, Hedges: st.Hedges, BreakerOpens: st.BreakerOpens, P999Ms: st.P999Ms}
		},
		// A partitioned server still reads and runs requests, but its
		// replies vanish: the sub-operation times out, and nothing
		// answers late.
		trip: func(c int) { scripts[c].Set(faultinject.Partition) },
		heal: func(c int) { scripts[c].Heal() },
	}
}

var transports = []struct {
	name  string
	start func(*testing.T, gatherSpec) *rig
}{
	{"inproc", startInproc},
	{"sockets", startSockets},
}

// onBoth runs one case on each transport.
func onBoth(t *testing.T, s gatherSpec, body func(t *testing.T, r *rig)) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) { body(t, tr.start(t, s)) })
	}
}

// sleepOn returns an exec that stalls every sub-operation executing on
// comp for d.
func sleepOn(comp int, d time.Duration) func(context.Context, int, int) error {
	return func(_ context.Context, c, _ int) error {
		if c == comp {
			time.Sleep(d)
		}
		return nil
	}
}

func answered(sr service.SubResult) bool {
	return sr.Err == nil && !sr.Skipped && sr.Value != nil
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

const stall = 250 * time.Millisecond

func TestWaitAllGathersEverything(t *testing.T) {
	onBoth(t, gatherSpec{n: 3, policy: service.WaitAll, deadline: 2 * time.Second, exec: sleepOn(1, stall)},
		func(t *testing.T, r *rig) {
			t0 := time.Now()
			subs := r.call(t, context.Background())
			if lat := time.Since(t0); lat < stall {
				t.Fatalf("WaitAll finished in %v, before the %v straggler", lat, stall)
			}
			for i, sr := range subs {
				if !answered(sr) || sr.Subset != i {
					t.Fatalf("sub %d: %+v", i, sr)
				}
			}
		})
}

func TestPartialGatherSkipsSlow(t *testing.T) {
	onBoth(t, gatherSpec{n: 3, policy: service.PartialGather, deadline: 60 * time.Millisecond, exec: sleepOn(1, stall)},
		func(t *testing.T, r *rig) {
			t0 := time.Now()
			subs := r.call(t, context.Background())
			if lat := time.Since(t0); lat >= stall {
				t.Fatalf("PartialGather took %v, did not cut at the deadline", lat)
			}
			if !subs[1].Skipped {
				t.Fatalf("straggler not skipped: %+v", subs[1])
			}
			for _, i := range []int{0, 2} {
				if !answered(subs[i]) {
					t.Fatalf("sub %d: %+v", i, subs[i])
				}
			}
		})
}

func TestHedgedUsesReplica(t *testing.T) {
	onBoth(t, gatherSpec{n: 3, policy: service.Hedged, deadline: 2 * time.Second, hedgeFloor: 5 * time.Millisecond, exec: sleepOn(1, stall)},
		func(t *testing.T, r *rig) {
			t0 := time.Now()
			subs := r.call(t, context.Background())
			if lat := time.Since(t0); lat >= stall {
				t.Fatalf("Hedged took %v, the replica did not win", lat)
			}
			if !answered(subs[1]) || !subs[1].Hedged {
				t.Fatalf("straggler must be answered by its replica: %+v", subs[1])
			}
			if r.stats().Hedges == 0 {
				t.Fatal("hedge counter must move")
			}
		})
}

// slowExec stalls every sub-operation long enough for a hedge to fire.
func slowExec(context.Context, int, int) error {
	time.Sleep(30 * time.Millisecond)
	return nil
}

// TestReplicaOfSelfIsSkipped: a replica mapped onto its own subset's
// component would queue behind the primary, so no hedge is issued.
func TestReplicaOfSelfIsSkipped(t *testing.T) {
	onBoth(t, gatherSpec{n: 2, policy: service.Hedged, deadline: time.Second, hedgeFloor: 2 * time.Millisecond,
		replicaOf: func(subset, n int) int { return subset }, exec: slowExec},
		func(t *testing.T, r *rig) {
			r.call(t, context.Background())
			if h := r.stats().Hedges; h != 0 {
				t.Fatalf("self-replica hedges = %d", h)
			}
		})
}

// TestHedgeSkipsPrimaryPlacement: the router puts subset 0's primary on
// component 1, exactly where ReplicaOf would put its replica, so that
// hedge is skipped; subset 1's replica (component 0) is legitimate.
func TestHedgeSkipsPrimaryPlacement(t *testing.T) {
	onBoth(t, gatherSpec{n: 2, policy: service.Hedged, deadline: time.Second, hedgeFloor: 2 * time.Millisecond, exec: slowExec},
		func(t *testing.T, r *rig) {
			r.SetRouter(func(subset, n int, _ func(int) int) int { return 1 })
			subs := r.call(t, context.Background())
			if subs[0].Hedged {
				t.Fatalf("replica issued onto the primary's component: %+v", subs[0])
			}
		})
}

func TestClusterHedgeTriggerColdStartGuard(t *testing.T) {
	const floor = 3 * time.Millisecond
	onBoth(t, gatherSpec{n: 2, policy: service.WaitAll, deadline: time.Second, hedgeFloor: floor,
		exec: func(context.Context, int, int) error { time.Sleep(40 * time.Millisecond); return nil }},
		func(t *testing.T, r *rig) {
			// Two sub-operations: fewer than the warm-up count, so the
			// trigger holds the floor.
			r.call(t, context.Background())
			if got := r.EstimatedP95(); got != floor {
				t.Fatalf("cold-start hedge delay = %v, want the %v floor", got, floor)
			}
			for r.stats().SubOps < stats.HedgeWarmObservations {
				r.call(t, context.Background())
			}
			if got := r.EstimatedP95(); got < 20*time.Millisecond {
				t.Fatalf("warm hedge delay = %v, not tracking 40ms sub-operations", got)
			}
		})
	onBoth(t, gatherSpec{n: 2, policy: service.WaitAll, deadline: time.Second, hedgeFloor: time.Second},
		func(t *testing.T, r *rig) {
			for i := 0; i < 8; i++ {
				r.call(t, context.Background())
			}
			if got := r.EstimatedP95(); got != time.Second {
				t.Fatalf("warm sub-floor estimate = %v, want clamped to the floor", got)
			}
		})
}

func TestClusterBreakerEvictsAndRecovers(t *testing.T) {
	onBoth(t, gatherSpec{n: 3, policy: service.WaitAll, deadline: 100 * time.Millisecond,
		breaker: breaker.Config{FailThreshold: 2, Cooldown: 30 * time.Millisecond}},
		func(t *testing.T, r *rig) {
			r.trip(0)
			// Calls go on until subset 0 is answered around the failure.
			waitFor(t, "subset 0 answered via a healthy component", func() bool {
				return answered(r.call(t, context.Background())[0])
			})
			if st := r.BreakerState(0); st == breaker.Closed {
				t.Fatal("tripped component's breaker still closed")
			}
			if r.stats().BreakerOpens == 0 {
				t.Fatal("BreakerOpens must move")
			}
			r.heal(0)
			waitFor(t, "breaker re-close after heal", func() bool {
				r.call(t, context.Background())
				return r.BreakerState(0) == breaker.Closed
			})
		})
}

// TestContextCancellation cancels a Call whose sub-operations are all
// parked: it returns promptly, releases its in-flight slot, leaks no
// goroutine once closed, and — cancellation not being a fault —
// opens no breaker.
func TestContextCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			release := make(chan struct{})
			defer close(release) // before the rig's cleanup closes its servers
			r := tr.start(t, gatherSpec{n: 2, policy: service.Hedged, deadline: 30 * time.Second,
				breaker: breaker.Config{FailThreshold: 1},
				exec: func(ctx context.Context, _, _ int) error {
					select {
					case <-release:
						return nil
					case <-ctx.Done():
						return ctx.Err()
					}
				}})
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan []service.SubResult, 1)
			go func() {
				subs, _ := r.Call(ctx, payload())
				done <- subs
			}()
			time.Sleep(50 * time.Millisecond)
			cancel()
			select {
			case subs := <-done:
				for i, sr := range subs {
					if answered(sr) {
						t.Fatalf("sub %d answered after cancellation: %+v", i, sr)
					}
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Call did not return after cancellation")
			}
			if got := r.Inflight(); got != 0 {
				t.Fatalf("Inflight = %d after the cancelled Call returned", got)
			}
			if opens := r.stats().BreakerOpens; opens != 0 {
				t.Fatalf("cancellation opened %d breakers", opens)
			}
		})
	}
	waitFor(t, "goroutines to unwind", func() bool { return runtime.NumGoroutine() <= before+2 })
}

func TestCloseIdempotentAndRejectsCalls(t *testing.T) {
	onBoth(t, gatherSpec{n: 1, policy: service.WaitAll}, func(t *testing.T, r *rig) {
		r.call(t, context.Background())
		r.Close()
		r.Close()
		if _, err := r.Call(context.Background(), payload()); !errors.Is(err, service.ErrClosed) {
			t.Fatalf("Call after Close: err = %v, want ErrClosed", err)
		}
	})
}

// The transport decides what is breaker evidence: an in-process handler
// error is the component failing, while a socket reply — even an error
// reply — proves the peer alive.
func TestBreakerEvidenceComesFromTransport(t *testing.T) {
	boom := func(context.Context, int, int) error { return errors.New("boom") }
	spec := gatherSpec{n: 1, policy: service.WaitAll, deadline: time.Second, exec: boom,
		breaker: breaker.Config{FailThreshold: 1, Cooldown: time.Minute}}
	t.Run("inproc", func(t *testing.T) {
		r := startInproc(t, spec)
		r.call(t, context.Background())
		if st := r.BreakerState(0); st != breaker.Open {
			t.Fatalf("handler error left the breaker %v, want open", st)
		}
	})
	t.Run("sockets", func(t *testing.T) {
		r := startSockets(t, spec)
		r.call(t, context.Background())
		if st := r.BreakerState(0); st != breaker.Closed {
			t.Fatalf("error reply left the breaker %v, want closed", st)
		}
	})
}

// TestHalfOpenProbeOnRequestPath: once the cooldown has passed, the next
// sub-operation routed to a tripped component is its half-open probe, so
// a healed component rejoins on the next request.
func TestHalfOpenProbeOnRequestPath(t *testing.T) {
	onBoth(t, gatherSpec{n: 1, policy: service.WaitAll, deadline: 60 * time.Millisecond,
		breaker: breaker.Config{FailThreshold: 1, Cooldown: 30 * time.Millisecond},
		// The socket prober's first redial lands seconds out, so only
		// request traffic can close the breaker inside the test.
		redial: 4 * time.Second},
		func(t *testing.T, r *rig) {
			r.trip(0)
			r.call(t, context.Background())
			if st := r.BreakerState(0); st != breaker.Open {
				t.Fatalf("breaker %v after the failure, want open", st)
			}
			r.heal(0)
			time.Sleep(50 * time.Millisecond)
			subs := r.call(t, context.Background())
			if !answered(subs[0]) {
				t.Fatalf("probe not admitted: %+v", subs[0])
			}
			if st := r.BreakerState(0); st != breaker.Closed {
				t.Fatalf("breaker %v after a successful probe, want closed", st)
			}
		})
}

// TestDeadlineSkipIsBreakerFault: a sub-operation still unanswered when
// the gather deadline cuts it is failure evidence against its component.
func TestDeadlineSkipIsBreakerFault(t *testing.T) {
	onBoth(t, gatherSpec{n: 2, policy: service.PartialGather, deadline: 30 * time.Millisecond,
		exec: sleepOn(0, 120*time.Millisecond), breaker: breaker.Config{FailThreshold: 1}},
		func(t *testing.T, r *rig) {
			subs := r.call(t, context.Background())
			if !subs[0].Skipped {
				t.Fatalf("slow sub-operation not skipped: %+v", subs[0])
			}
			if r.stats().BreakerOpens == 0 {
				t.Fatal("a deadline skip opened no breaker")
			}
		})
}

// TestFailedReplicaNeverDisplacesPrimary: a replica that fails leaves
// the subset to its primary.
func TestFailedReplicaNeverDisplacesPrimary(t *testing.T) {
	exec := func(_ context.Context, comp, subset int) error {
		switch {
		case comp == 0:
			time.Sleep(60 * time.Millisecond)
		case subset == 0: // subset 0's replica, on component 1
			return errors.New("replica failed")
		}
		return nil
	}
	onBoth(t, gatherSpec{n: 2, policy: service.Hedged, deadline: 2 * time.Second, hedgeFloor: 5 * time.Millisecond, exec: exec},
		func(t *testing.T, r *rig) {
			subs := r.call(t, context.Background())
			if !answered(subs[0]) || !subs[0].Hedged {
				t.Fatalf("subset 0 must be the primary's answer, marked hedged: %+v", subs[0])
			}
		})
}

// TestEveryReplySampled: the hedge trigger's estimator samples every
// reply — a losing primary too — each timed from its own dispatch.
func TestEveryReplySampled(t *testing.T) {
	const floor = 40 * time.Millisecond
	onBoth(t, gatherSpec{n: 2, policy: service.Hedged, deadline: 2 * time.Second, hedgeFloor: floor, exec: sleepOn(0, 150*time.Millisecond)},
		func(t *testing.T, r *rig) {
			subs := r.call(t, context.Background())
			if !subs[0].Hedged || subs[0].Latency >= floor {
				t.Fatalf("replica win must be timed from the replica's dispatch: %+v", subs[0])
			}
			// Subset 1, subset 0's replica, then subset 0's late primary.
			waitFor(t, "the losing primary's sample", func() bool { return r.stats().SubOps >= 3 })
		})
}

// TestHedgeCountedWhenIssued: a hedge counts when its replica is issued,
// even if the replica's component then refuses it.
func TestHedgeCountedWhenIssued(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			release := make(chan struct{})
			defer close(release) // before the rig's cleanup closes its servers
			// Both stragglers hedge onto component 2, whose queue has room
			// for at most one of them.
			r := tr.start(t, gatherSpec{n: 3, policy: service.Hedged, deadline: 2 * time.Second,
				hedgeFloor: 10 * time.Millisecond, queueLen: 1,
				replicaOf: func(int, int) int { return 2 },
				exec: func(_ context.Context, comp, _ int) error {
					if comp == 2 {
						<-release
					} else {
						time.Sleep(100 * time.Millisecond)
					}
					return nil
				}})
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			r.call(t, ctx)
			if h := r.stats().Hedges; h != 2 {
				t.Fatalf("Hedges = %d, want 2 (one per issued replica)", h)
			}
		})
	}
}
