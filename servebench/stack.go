package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"accuracytrader/internal/agg"
	"accuracytrader/internal/audit"
	"accuracytrader/internal/cf"
	"accuracytrader/internal/cost"
	"accuracytrader/internal/experiments"
	"accuracytrader/internal/frontend"
	"accuracytrader/internal/ingest"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/obs"
	"accuracytrader/internal/rescache"
	"accuracytrader/internal/service"
	"accuracytrader/internal/wire"
	wl "accuracytrader/internal/workload"
)

// calibrationQueries bounds how many templates calibrate the ladder.
const calibrationQueries = 64

// templateSeed draws the request templates. It is fixed so that the
// work per request does not change with --seed, which shapes the
// arrival times, which template each arrival sends and the appends.
const templateSeed = 1

// stack is the deployed serving stack in one process, over loopback
// TCP: numServers component servers, an aggregator, a front server
// (with the frontend pipeline where the workload has a ladder) and one
// client connection. It also holds the workload's request templates and
// the exact answers replies are checked against.
type stack struct {
	w    *workload
	seed uint64
	tr   *tracer // nil on untraced runs

	servers []*netsvc.Server
	agr     *netsvc.Aggregator
	fe      *frontend.Frontend
	fs      *netsvc.FrontServer
	cl      *netsvc.Client
	cache   *rescache.Cache
	auditor *audit.Auditor
	costs   *cost.Table
	lives   []*ingest.AggLive
	workers []*ingest.Worker
	serving sync.WaitGroup

	reqs     []*wire.Request
	levelAcc []float64

	// Exact answers, composed in process from per-shard exact results:
	// aggregation queries (not kept for agglive, whose data moves) and
	// CF requests with their active users' mean ratings.
	aggQ     []agg.Query
	aggExact []*wire.AggResult
	cfMean   []float64
	cfExact  []*wire.CFResult

	// agglive: the base fact rows and the ladder config, for the
	// offline rebuild after the load.
	facts  *wl.FactsData
	aggCfg agg.Config
}

// buildStack builds the workload's data, answers and serving stack and
// warms it up. The data is always experiments.DefaultScale(); seed
// draws the append batches and the post-load check's queries.
func buildStack(w *workload, seed uint64, tr *tracer) (st *stack, err error) {
	st = &stack{w: w, seed: seed, tr: tr}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	sc := experiments.DefaultScale()
	var handler netsvc.Handler
	var ingestH netsvc.IngestHandler
	switch w.kind {
	case wire.KindAgg:
		svc, err := experiments.BuildAggService(sc)
		if err != nil {
			return st, err
		}
		st.aggQ = svc.Data.SampleAggQueries(templateSeed^0x51a9, w.templates)
		for _, q := range st.aggQ {
			st.reqs = append(st.reqs, &wire.Request{
				Kind: wire.KindAgg, Subset: -1, SLO: wire.SLONone, Level: wire.NoLevel,
				Agg: &wire.AggRequest{Op: uint8(q.Op), Lo: q.Lo, Hi: q.Hi},
			})
		}
		calib := st.aggQ[:min(len(st.aggQ), calibrationQueries)]
		for l := 0; l < svc.Comps[0].Syn.Levels(); l++ {
			st.levelAcc = append(st.levelAcc, agg.MeasureLevelAccuracy(svc.Comps, calib, l))
		}
		if w.live {
			st.facts, st.aggCfg = svc.Data, sc.AggConfig()
			if err := st.startLive(); err != nil {
				return st, err
			}
			handler = netsvc.NewLiveAggBackend(st.lives, netsvc.BackendOptions{})
			ingestH = netsvc.NewLiveIngestHandler(netsvc.LiveStores{Agg: st.lives})
		} else {
			for _, q := range st.aggQ {
				st.aggExact = append(st.aggExact, exactAgg(svc.Comps, q))
			}
			handler = netsvc.NewAggBackend(svc.Comps, netsvc.BackendOptions{})
		}
	case wire.KindCF:
		svc, err := experiments.BuildCFService(sc)
		if err != nil {
			return st, err
		}
		for _, r := range svc.Data.SampleCFRequests(templateSeed^0x52cf, w.templates, 0.2) {
			ratings := make([]wire.Rating, len(r.Known))
			for i, kr := range r.Known {
				ratings[i] = wire.Rating{Item: kr.Item, Score: kr.Score}
			}
			st.reqs = append(st.reqs, &wire.Request{
				Kind: wire.KindCF, Subset: -1, SLO: wire.SLONone, Level: wire.NoLevel,
				CF: &wire.CFRequest{Ratings: ratings, Targets: r.Targets},
			})
			creq := cf.NewRequest(r.Known, r.Targets)
			st.cfMean = append(st.cfMean, creq.ActiveMean())
			st.cfExact = append(st.cfExact, exactCF(svc.Comps, creq))
		}
		handler = netsvc.NewCFBackend(svc.Comps, netsvc.BackendOptions{})
	}
	if len(st.reqs) < w.templates {
		return st, fmt.Errorf("%s: drew %d request templates, want %d", w.name, len(st.reqs), w.templates)
	}
	if err := st.startServing(handler, ingestH); err != nil {
		return st, err
	}
	return st, st.warmUp()
}

// exactAgg composes one query's exact answer from per-shard exact
// results, in subset order, as the front server composes sub-replies.
func exactAgg(comps []*agg.Component, q agg.Query) *wire.AggResult {
	subs := make([]service.SubResult, len(comps))
	for i, c := range comps {
		res := agg.ExactResult(c, q)
		subs[i] = service.SubResult{Subset: i, Value: &wire.SubReply{Status: wire.StatusOK,
			Agg: &wire.AggResult{Sum: res.Sum, Cnt: res.Cnt, SumVar: res.SumVar, CntVar: res.CntVar}}}
	}
	return netsvc.ComposeAgg(subs)
}

func exactCF(comps []*cf.Component, req cf.Request) *wire.CFResult {
	subs := make([]service.SubResult, len(comps))
	for i, c := range comps {
		res := cf.ExactResult(c, req)
		subs[i] = service.SubResult{Subset: i, Value: &wire.SubReply{Status: wire.StatusOK,
			CF: &wire.CFResult{Num: res.Num, Den: res.Den}}}
	}
	return netsvc.ComposeCF(subs)
}

// startLive loads each shard's base rows into a live store, compacts
// it, and starts its merge worker.
func (st *stack) startLive() error {
	for _, tab := range st.facts.Subsets {
		keys, vals := tableColumns(tab)
		l := ingest.NewAggLive(tab.NumKeys(), st.aggCfg)
		if _, err := l.Append(keys, vals); err != nil {
			return err
		}
		if _, _, _, err := l.Compact(); err != nil {
			return err
		}
		st.lives = append(st.lives, l)
		st.workers = append(st.workers, ingest.NewWorker(l, ingest.WorkerOptions{Interval: mergeInterval, CompactEvery: compactEvery}))
	}
	return nil
}

func tableColumns(tab *agg.Table) ([]int32, []float64) {
	keys := make([]int32, tab.NumRows())
	vals := make([]float64, tab.NumRows())
	for r := range keys {
		keys[r], vals[r] = tab.Key(r), tab.Value(r)
	}
	return keys, vals
}

// listen opens a loopback listener, counted when tracing.
func (st *stack) listen() (net.Listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil || st.tr == nil {
		return l, err
	}
	return countingListener{Listener: l, t: st.tr}, nil
}

func (st *stack) serve(srv interface{ Serve(net.Listener) error }, l net.Listener) {
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = srv.Serve(l) // returns once the server is closed
	}()
}

// startServing starts the component servers, the aggregator, the front
// server with its planes, and dials the client.
func (st *stack) startServing(handler netsvc.Handler, ingestH netsvc.IngestHandler) error {
	if st.tr != nil {
		handler = st.tr.wrapHandler(handler)
	}
	addrs := make([]string, numServers)
	for i := range addrs {
		srv := netsvc.NewServer(handler, componentOptions())
		if ingestH != nil {
			srv.SetIngest(ingestH)
		}
		st.servers = append(st.servers, srv)
		l, err := st.listen()
		if err != nil {
			return err
		}
		addrs[i] = l.Addr().String()
		st.serve(srv, l)
	}
	var reg *obs.Registry
	if st.w.live {
		// As the aggregator role wires its planes: one registry for the
		// frontend, aggregator, SLO, audit and cost metrics.
		reg = obs.NewRegistry()
	}
	aopts := aggregatorOptions()
	aopts.Metrics = reg
	if st.tr != nil {
		aopts.Dial = st.tr.dial
	}
	agr, err := netsvc.NewAggregator(addrs, aopts)
	if err != nil {
		return err
	}
	st.agr = agr
	if err := agr.WaitReady(15 * time.Second); err != nil {
		return err
	}
	if st.w.frontend {
		var be frontend.Backend = agr
		if st.tr != nil {
			be = tracedBackend{Aggregator: agr, t: st.tr}
		}
		if st.fe, err = newFrontend(be, st.levelAcc, frontend.Options{Metrics: reg}); err != nil {
			return err
		}
	}
	fopts := frontOptions()
	if st.w.live {
		fopts.Tracer = obs.NewRecorder(512, 64)
	}
	st.fs = netsvc.NewFrontServer(agr, st.fe, fopts)
	st.fs.EnableIngest(rewarmHot)
	if st.w.live {
		if err := st.enablePlanes(reg); err != nil {
			return err
		}
	}
	l, err := st.listen()
	if err != nil {
		return err
	}
	st.serve(st.fs, l)
	st.cl, err = netsvc.DialClient(l.Addr().String(), netsvc.ClientOptions{})
	return err
}

// enablePlanes turns on the result cache and the SLO, audit and cost
// planes on the front server.
func (st *stack) enablePlanes(reg *obs.Registry) error {
	var err error
	if st.cache, err = rescache.New(rescache.Config{Metrics: reg}); err != nil {
		return err
	}
	if err := st.fs.EnableCache(st.cache); err != nil {
		return err
	}
	slo := obs.NewSLOTracker(obs.DefaultSLOBudgets())
	slo.RegisterMetrics(reg)
	st.fs.EnableSLO(slo, nil)
	if st.auditor, err = st.fs.EnableAudit(audit.Config{Metrics: reg}); err != nil {
		return err
	}
	st.costs = cost.NewTable()
	st.costs.RegisterMetrics(reg)
	return st.fs.EnableCost(st.costs)
}

// warmUp sends each of the first templates once, four at a time, so
// connections, pools and the controller's smoothing are live before
// the first timed request.
func (st *stack) warmUp() error {
	n := min(len(st.reqs), 64)
	errs := make(chan error, n)
	sem := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			req := *st.reqs[i]
			req.SLO, req.MinAccuracy = st.w.classOf(i)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			rep, err := st.cl.Call(ctx, &req)
			switch {
			case err != nil:
				errs <- fmt.Errorf("warm-up request %d: %w", i, err)
			case rep.Status != wire.ReplyOK:
				errs <- fmt.Errorf("warm-up request %d: reply status %d: %s", i, rep.Status, rep.Err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// close tears the stack down and waits for every server to stop.
func (st *stack) close() {
	if st.cl != nil {
		st.cl.Close()
	}
	if st.auditor != nil {
		st.auditor.Close()
	}
	if st.cache != nil {
		st.cache.Close()
	}
	if st.fs != nil {
		st.fs.Close()
	}
	if st.agr != nil {
		st.agr.Close()
	}
	for _, s := range st.servers {
		s.Close()
	}
	for _, w := range st.workers {
		w.Close()
	}
	st.serving.Wait()
}
