package main

import (
	"context"
	"fmt"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/ingest"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
)

// compactTimeout bounds the wait for the merge workers to fold every
// appended row into their bases once the load stops.
const compactTimeout = 10 * time.Second

// probeQueries is the number of fresh queries the post-load check sends.
const probeQueries = 64

// liveCheck is the agglive post-load verdict.
type liveCheck struct {
	mismatches []string
	// acc is the realized accuracy of approximate answers to the fresh
	// queries over the compacted data.
	acc dist
	// staleCached counts load templates whose Exact answer, asked again
	// after the load, came from the result cache and differs from the
	// rebuild: an entry filled before an epoch swap the front server
	// never observed.
	staleCached int
}

// verifyLive waits until the merge workers have compacted every row,
// rebuilds each shard offline from its base rows plus every
// acknowledged append (in the order it was staged), and checks that
// Exact answers through the stack are bit-identical to the rebuild's:
// for fresh queries (drawn apart from the load templates, so each is a
// full fan-out over the compacted stores) and for every load template.
// A load template answered from the result cache with pre-swap data is
// counted apart, as stale, rather than failing the check.
func (st *stack) verifyLive(d *runData) (*liveCheck, error) {
	deadline := time.Now().Add(compactTimeout)
	for _, l := range st.lives {
		for {
			s := l.Stats()
			if s.BaseRows == s.Rows && s.StagedRows == 0 {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("merge workers did not compact within %v", compactTimeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	snaps := make([]*ingest.AggSnapshot, len(st.facts.Subsets))
	for s, tab := range st.facts.Subsets {
		keys, vals := tableColumns(tab)
		for _, w := range d.wrecs {
			if w.ok && int(w.subset)%len(snaps) == s {
				keys = append(keys, w.keys...)
				vals = append(vals, w.vals...)
			}
		}
		snap, err := ingest.BuildAggSnapshot(tab.NumKeys(), st.aggCfg, keys, vals)
		if err != nil {
			return nil, err
		}
		snaps[s] = snap
	}
	rebuilt := func(q agg.Query) *wire.AggResult {
		subs := make([]service.SubResult, len(snaps))
		for i, snap := range snaps {
			res := snap.Exact(agg.Result{}, q)
			subs[i] = service.SubResult{Subset: i, Value: &wire.SubReply{Status: wire.StatusOK,
				Agg: &wire.AggResult{Sum: res.Sum, Cnt: res.Cnt, SumVar: res.SumVar, CntVar: res.CntVar}}}
		}
		return netsvc.ComposeAgg(subs)
	}
	chk := &liveCheck{}
	ask := func(q agg.Query, class uint8) (*wire.Reply, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rep, err := st.cl.Call(ctx, &wire.Request{Kind: wire.KindAgg, Subset: -1, SLO: class, Level: wire.NoLevel,
			Agg: &wire.AggRequest{Op: uint8(q.Op), Lo: q.Lo, Hi: q.Hi}})
		if err == nil && rep.Status != wire.ReplyOK {
			err = fmt.Errorf("reply status %d: %s", rep.Status, rep.Err)
		}
		return rep, err
	}
	for i, q := range st.facts.SampleAggQueries(st.seed^0xf7e5, probeQueries) {
		want := rebuilt(q)
		// The approximate answer first: an Exact answer cached for the
		// same query would otherwise serve it.
		rep, err := ask(q, wire.SLOBestEffort)
		if err != nil {
			return nil, fmt.Errorf("post-load approximate query %d: %w", i, err)
		}
		acc, ok := aggAccuracy(rep.Agg, want, q.Op)
		if !ok {
			chk.mismatches = append(chk.mismatches,
				fmt.Sprintf("post-load query %d: approximate answer without a well-formed payload", i))
		}
		chk.acc.add(acc)
		if rep, err = ask(q, wire.SLOExact); err != nil {
			return nil, fmt.Errorf("post-load Exact query %d: %w", i, err)
		}
		if !sameAgg(rep.Agg, want) {
			chk.mismatches = append(chk.mismatches,
				fmt.Sprintf("post-load query %d: Exact answer differs from the offline rebuild", i))
		}
	}
	for i, q := range st.aggQ {
		rep, err := ask(q, wire.SLOExact)
		if err != nil {
			return nil, fmt.Errorf("post-load Exact template %d: %w", i, err)
		}
		switch {
		case sameAgg(rep.Agg, rebuilt(q)):
		case rep.Cached:
			chk.staleCached++
		default:
			chk.mismatches = append(chk.mismatches,
				fmt.Sprintf("post-load template %d: Exact answer differs from the offline rebuild", i))
		}
	}
	return chk, nil
}
