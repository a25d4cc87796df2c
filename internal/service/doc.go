// Package service holds the fan-out core of the AccuracyTrader
// reproduction and its in-process runtime: the topology the simulator
// models — a frontend partitioning each request across n parallel
// components and a composer gathering sub-results — running on real
// goroutines with context deadlines.
//
// Fanout is the one gather core. It places each sub-operation (with
// open-breaker eviction and half-open probes), keeps a circuit breaker
// per component, runs the gather policy, drives the P² hedge trigger,
// re-dispatches retryable failures within a budget, and keeps the
// counters. A Transport moves sub-operations to components and reports
// one Outcome per attempt; the outcome says what the transport's
// failure domain makes of it (breaker evidence, retryable or not).
// Cluster is Fanout over mailbox workers, one single-server FIFO
// goroutine per component; netsvc.Aggregator is Fanout over sockets.
//
// The gather policies mirror the compared techniques:
//
//   - WaitAll — the Basic behaviour: block until every component replies.
//   - PartialGather — partial execution: return whatever arrived by the
//     deadline and skip the rest.
//   - Hedged — request reissue: when a sub-operation has been outstanding
//     longer than the estimated p95 sub-operation latency, issue a
//     replica of it on another component and use the quicker reply.
//
// AccuracyTrader itself needs no special gather policy: components finish
// within the deadline by construction (their handler runs Algorithm 1 via
// core.RunWithDeadline), so WaitAll composes complete results quickly.
package service
