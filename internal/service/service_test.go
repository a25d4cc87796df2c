package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func sleepHandler(d time.Duration, v interface{}) Handler {
	return func(ctx context.Context, _ interface{}) (interface{}, error) {
		select {
		case <-time.After(d):
			return v, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func TestNewRequiresHandlers(t *testing.T) {
	if _, err := New(nil, WaitAll, Options{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestQueueFullFailsFast(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, _ interface{}) (interface{}, error) {
		<-release
		return nil, nil
	}
	cl, err := New([]Handler{blocking}, WaitAll, Options{QueueLen: 1, Deadline: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// One call occupies the worker, a second fills the 1-slot mailbox.
	var wg sync.WaitGroup
	for depth := 1; depth <= 2; depth++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Call(context.Background(), nil)
		}()
		waitDepth(t, cl, 0, depth)
	}
	res, err := cl.Call(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %+v", res[0])
	}
	close(release)
	wg.Wait()
}

// waitDepth waits until comp's queue depth reaches want.
func waitDepth(t *testing.T, cl *Cluster, comp, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for cl.QueueDepth(comp) != want {
		if time.Now().After(deadline) {
			t.Fatalf("QueueDepth(%d) = %d, want %d", comp, cl.QueueDepth(comp), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStatsAccumulate(t *testing.T) {
	cl, err := New([]Handler{sleepHandler(time.Millisecond, nil), sleepHandler(time.Millisecond, nil)}, WaitAll, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 5; i++ {
		if _, err := cl.Call(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := cl.Stats()
	if st.SubOps != 10 {
		t.Fatalf("SubOps = %d", st.SubOps)
	}
	if st.P999Ms <= 0 {
		t.Fatalf("P999 = %v", st.P999Ms)
	}
}

func TestConcurrentCalls(t *testing.T) {
	cl, err := New([]Handler{
		sleepHandler(time.Millisecond, 0),
		sleepHandler(time.Millisecond, 1),
		sleepHandler(time.Millisecond, 2),
		sleepHandler(time.Millisecond, 3),
	}, WaitAll, Options{QueueLen: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg int32 = 20
	errCh := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func() {
			_, err := cl.Call(context.Background(), nil)
			errCh <- err
			atomic.AddInt32(&wg, -1)
		}()
	}
	for i := 0; i < 20; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	cl, err := New([]Handler{func(context.Context, interface{}) (interface{}, error) {
		return nil, boom
	}}, WaitAll, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Call(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, boom) {
		t.Fatalf("error lost: %+v", res[0])
	}
}

func TestReplicaOfOverride(t *testing.T) {
	// Components 0 and 1 are slow machines, so subset 0's replica on the
	// default target (component 1) would be as slow as its primary.
	// Routing the replica to component 2 via ReplicaOf is the only way to
	// answer quickly.
	mk := func(v interface{}) Handler {
		return func(ctx context.Context, _ interface{}) (interface{}, error) {
			if comp, _ := ComponentFrom(ctx); comp != 2 {
				time.Sleep(250 * time.Millisecond)
			}
			return v, nil
		}
	}
	cl, err := New(
		[]Handler{mk("fast"), mk(1), mk(2)},
		Hedged,
		Options{
			HedgeFloor: 5 * time.Millisecond,
			Deadline:   2 * time.Second,
			ReplicaOf:  func(subset, n int) int { return (subset + 2) % n },
		})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Call(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[0].Value != "fast" {
		t.Fatalf("subset 0 result: %+v", res[0])
	}
	if !res[0].Hedged {
		t.Fatalf("subset 0 not hedged: %+v", res[0])
	}
	// Subset 0's answer must come long before the slow machines finish —
	// only possible via the ReplicaOf route to component 2 (subset 1's
	// result legitimately takes ~250ms, so the overall call does too).
	if res[0].Latency > 150*time.Millisecond {
		t.Fatalf("replica did not take the ReplicaOf route: %v", res[0].Latency)
	}
}

func TestPartialGatherAllFast(t *testing.T) {
	// When everything beats the deadline, nothing is skipped and the call
	// returns as soon as all replies arrive.
	cl, err := New([]Handler{
		sleepHandler(time.Millisecond, 1),
		sleepHandler(time.Millisecond, 2),
	}, PartialGather, Options{Deadline: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	res, err := cl.Call(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 200*time.Millisecond {
		t.Fatal("partial gather waited for the deadline with all replies in")
	}
	for _, r := range res {
		if r.Skipped {
			t.Fatalf("fast sub-op skipped: %+v", r)
		}
	}
}

func TestCloseRacesHedgeEnqueue(t *testing.T) {
	// A hedge timer's AfterFunc can fire concurrently with Close: Call
	// returns once the primary replies, timer.Stop does not wait for a
	// running callback, and Close may then drain calls and stop workers
	// while the callback still enqueues onto a mailbox. Mailboxes are
	// never closed, so the late enqueue must be harmless. Run many
	// iterations so -race gets real interleavings to check.
	for iter := 0; iter < 30; iter++ {
		cl, err := New([]Handler{
			sleepHandler(100*time.Microsecond, 0),
			sleepHandler(100*time.Microsecond, 1),
		}, Hedged, Options{
			// A sub-microsecond floor makes nearly every call arm a hedge
			// that fires while the primary is still running.
			HedgeFloor: time.Nanosecond,
			Deadline:   time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if _, err := cl.Call(context.Background(), nil); err != nil && !errors.Is(err, ErrClosed) {
						t.Error(err)
						return
					}
				}
			}()
		}
		cl.Close() // races the callers and their in-flight hedge timers
		wg.Wait()
	}
}

func TestPartialGatherExpiredDeadline(t *testing.T) {
	// With a deadline so short it has already passed by the time the
	// gather loop starts, the deadline timer is created with a negative
	// duration. It must fire immediately (not hang), skipping every
	// outstanding sub-operation.
	cl, err := New([]Handler{
		sleepHandler(50*time.Millisecond, 0),
		sleepHandler(50*time.Millisecond, 1),
	}, PartialGather, Options{Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	res, err := cl.Call(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("expired deadline blocked Call for %v", elapsed)
	}
	for i, r := range res {
		if !r.Skipped {
			t.Fatalf("sub %d not skipped with expired deadline: %+v", i, r)
		}
	}
}

func TestSetRouterRedirectsSubsets(t *testing.T) {
	// A router that sends every subset to component 1 leaves component
	// 0's slow machine idle: subset 0's sub-operation must not pay it.
	mk := func(v interface{}) Handler {
		return func(ctx context.Context, _ interface{}) (interface{}, error) {
			if comp, _ := ComponentFrom(ctx); comp == 0 {
				time.Sleep(300 * time.Millisecond)
			}
			return v, nil
		}
	}
	cl, err := New([]Handler{mk("zero"), mk("one")}, WaitAll, Options{Deadline: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRouter(func(subset, n int, depth func(int) int) int { return 1 })
	start := time.Now()
	res, err := cl.Call(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("router did not avoid the slow component: %v", elapsed)
	}
	if res[0].Value != "zero" || res[1].Value != "one" {
		t.Fatalf("routed results wrong: %+v", res)
	}
	// An out-of-range route falls back to the subset's own component.
	cl.SetRouter(func(subset, n int, depth func(int) int) int { return -7 })
	if _, err := cl.Call(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestQueueDepthAndInflightProbes(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, _ interface{}) (interface{}, error) {
		<-release
		return nil, nil
	}
	cl, err := New([]Handler{blocking}, WaitAll, Options{QueueLen: 8, Deadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Components() != 1 || cl.QueueCap() != 8 {
		t.Fatalf("Components=%d QueueCap=%d", cl.Components(), cl.QueueCap())
	}
	if cl.Inflight() != 0 {
		t.Fatalf("Inflight = %d with no Calls", cl.Inflight())
	}
	// Four calls park behind the blocked worker: it holds one (busy) and
	// three wait in the mailbox; depth counts both.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Call(context.Background(), nil)
		}()
	}
	waitDepth(t, cl, 0, 4)
	if cl.Inflight() != 4 {
		t.Fatalf("Inflight = %d with four Calls running", cl.Inflight())
	}
	close(release)
	wg.Wait()
}

func TestHedgeDelayAdaptsToObservedLatency(t *testing.T) {
	cl, err := New([]Handler{sleepHandler(2*time.Millisecond, nil)}, Hedged, Options{
		HedgeFloor: time.Millisecond,
		Deadline:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 200; i++ {
		if _, err := cl.Call(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
	// After warm-up the estimate must reflect the ~2ms handler, not the
	// 1ms floor.
	if d := cl.EstimatedP95(); d < 1500*time.Microsecond {
		t.Fatalf("hedge delay %v did not adapt upward", d)
	}
}
