package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"accuracytrader/internal/stats"
	"accuracytrader/internal/wire"
)

// workload is one named traffic mix. Every workload drives the same
// stack shape over experiments.DefaultScale() data; they differ in the
// application, the offered rate and which planes are on.
type workload struct {
	name string
	kind wire.Kind
	// rate is the offered read rate in requests per second.
	rate float64
	// templates is the number of distinct requests drawn from the seed;
	// zipfS > 0 picks them with Zipf skew, otherwise uniformly.
	templates int
	zipfS     float64
	// frontend puts the accuracy-aware pipeline in front of the
	// aggregator; live serves from agglive stores with appends, the
	// result cache and the obs/audit/cost planes on.
	frontend bool
	live     bool
	// deadline is the service budget of non-Exact requests, measured
	// from the scheduled send time; limit is the goodput latency limit.
	deadline time.Duration
	limit    time.Duration
	// writeRate and batchRows shape the append stream (live only).
	writeRate float64
	batchRows int
}

var workloads = []*workload{
	{name: "agg-steady", kind: wire.KindAgg, rate: 600, templates: 64, frontend: true,
		deadline: 50 * time.Millisecond, limit: 50 * time.Millisecond},
	{name: "agg-overload", kind: wire.KindAgg, rate: 2400, templates: 64, frontend: true,
		deadline: 50 * time.Millisecond, limit: 50 * time.Millisecond},
	{name: "cf-engine", kind: wire.KindCF, rate: 50, templates: 64,
		deadline: 100 * time.Millisecond, limit: 100 * time.Millisecond},
	{name: "agglive-mixed", kind: wire.KindAgg, rate: 600, templates: 256, zipfS: 1.0, frontend: true, live: true,
		deadline: 50 * time.Millisecond, limit: 50 * time.Millisecond, writeRate: 20, batchRows: 64},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// classOf assigns request r its SLO class, interleaved
// deterministically: 20% Exact, and with a frontend 30% Bounded{0.90}
// and 50% BestEffort (the overload experiment's mix). Without a
// frontend the other 80% carry no class.
func (w *workload) classOf(r int) (class uint8, minAcc float64) {
	switch {
	case r%10 < 2:
		return wire.SLOExact, 0
	case !w.frontend:
		return wire.SLONone, 0
	case r%10 < 5:
		return wire.SLOBounded, 0.9
	default:
		return wire.SLOBestEffort, 0
	}
}

// arrival is one scheduled operation: when it is due after the start
// of the window, and which template it sends.
type arrival struct {
	due  time.Duration
	tmpl int
}

// poissonSchedule draws the arrivals of an open-loop Poisson stream at
// rate per second over window, conditioned on its expected count: the
// rate x window arrival times are independent uniform draws, sorted.
// Fixing the count keeps goodput from varying with the number of
// arrivals a seed happens to draw. pick chooses each arrival's template.
func poissonSchedule(rng *stats.RNG, rate float64, window time.Duration, pick func() int) []arrival {
	n := int(math.Round(rate * window.Seconds()))
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * float64(window))
	}
	slices.Sort(dues)
	out := make([]arrival, n)
	for i, due := range dues {
		out[i] = arrival{due: due, tmpl: pick()}
	}
	return out
}

// readSchedule is the workload's read stream for one seed.
func (w *workload) readSchedule(seed uint64, window time.Duration) []arrival {
	rng := stats.NewRNG(seed ^ 0x5c4ed)
	pick := func() int { return rng.Intn(w.templates) }
	if w.zipfS > 0 {
		z := stats.NewZipf(rng.Split(1), w.templates, w.zipfS)
		pick = z.Draw
	}
	return poissonSchedule(rng, w.rate, window, pick)
}

// writeSchedule is the append stream; batch i is drawn from the seed
// by its index, so the arrivals carry no template.
func (w *workload) writeSchedule(seed uint64, window time.Duration) []arrival {
	if w.writeRate <= 0 {
		return nil
	}
	return poissonSchedule(stats.NewRNG(seed^0xa99e4d), w.writeRate, window, func() int { return 0 })
}
