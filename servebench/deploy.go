package main

import (
	"time"

	"accuracytrader/internal/frontend"
	"accuracytrader/internal/netsvc"
	"accuracytrader/internal/service"
)

// The option values `attrader -serve` deploys with, pinned in this one
// place (and recorded under "deployment" in BENCHMARK.json). A change
// to any of them is a change to the benchmark, not to the program.
const (
	// numServers component servers, one per data shard; every server
	// holds all shards, so routing is a latency choice.
	numServers = 12

	compWorkers  = 2    // component ServerOptions.Workers
	compQueueLen = 1024 // component ServerOptions.QueueLen

	// The aggregator gathers with WaitAll under a 2 s call deadline.
	aggDeadline = 2 * time.Second

	replicas = 2 // frontend replica factor, least-loaded routing

	// Admission and controller scale with the fan-out width n.
	inflightPerServer = 4 // MaxInflight(4n) and InflightSaturation 4n
	degradeWatermark  = 0.35
	rejectWatermark   = 0.85

	// agglive merge workers: publish every 5 ms, compact every 64 ticks.
	mergeInterval = 5 * time.Millisecond
	compactEvery  = 64
	// The front server re-warms this many hot cache entries per swap.
	rewarmHot = 32
)

func componentOptions() netsvc.ServerOptions {
	return netsvc.ServerOptions{Workers: compWorkers, QueueLen: compQueueLen}
}

// frontOptions are the front server's defaults; the tracer is the only
// field the agglive planes set.
func frontOptions() netsvc.ServerOptions { return netsvc.ServerOptions{} }

func aggregatorOptions() netsvc.AggregatorOptions {
	return netsvc.AggregatorOptions{Policy: service.WaitAll, Deadline: aggDeadline}
}

// newFrontend builds the admission → routing → degradation pipeline the
// aggregator role puts in front of a workload with a calibrated ladder.
func newFrontend(be frontend.Backend, levelAcc []float64, opts frontend.Options) (*frontend.Frontend, error) {
	n := be.Components()
	ctrl, err := frontend.NewController(frontend.ControllerConfig{
		Levels:             len(levelAcc),
		LevelAccuracy:      levelAcc,
		InflightSaturation: inflightPerServer * n,
	})
	if err != nil {
		return nil, err
	}
	opts.Replicas = replicas
	opts.Router = frontend.NewLeastLoaded()
	opts.Admission = []frontend.AdmissionPolicy{
		frontend.NewMaxInflight(inflightPerServer * n),
		frontend.NewQueueWatermark(degradeWatermark, rejectWatermark),
	}
	opts.Controller = ctrl
	return frontend.New(be, opts)
}
