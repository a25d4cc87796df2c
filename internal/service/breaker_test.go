package service

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"accuracytrader/internal/breaker"
)

// TestClusterBreakerFailsFastWhenNoHealthyAlternative pins the
// fail-fast contract on a single-component cluster: once tripped and
// inside the cooldown, Call reports ErrComponentDown without running
// the handler.
func TestClusterBreakerFailsFastWhenNoHealthyAlternative(t *testing.T) {
	var runs atomic.Int64
	boom := errors.New("boom")
	cl, err := New([]Handler{func(context.Context, interface{}) (interface{}, error) {
		runs.Add(1)
		return nil, boom
	}}, WaitAll, Options{
		Deadline: time.Second,
		Breaker:  breaker.Config{FailThreshold: 1, Cooldown: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	subs, err := cl.Call(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(subs[0].Err, boom) {
		t.Fatalf("first call: %+v", subs[0])
	}
	subs, err = cl.Call(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(subs[0].Err, ErrComponentDown) {
		t.Fatalf("call inside cooldown: err = %v, want ErrComponentDown", subs[0].Err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("handler ran %d times; the fail-fast call must not execute", got)
	}
}
