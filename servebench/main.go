// Command servebench is the serving benchmark: it stands up the
// deployed stack (component servers, aggregator, front server with the
// frontend pipeline, one client) over loopback TCP in one process and
// drives one named workload open-loop from a seeded Poisson schedule.
//
//	servebench --workload agg-steady --seed 1 --seconds 30 --trace 0
//
// It prints each metric with its unit, then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, from harness-side spans. Any answer that
// fails the correctness check makes it exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setups is how many times a run builds the stack; setup_s is the
// median, and the last stack serves the measured window.
const setups = 7

// maxLateShare is the generator-lateness bound as a share of the
// workload's latency limit: a run whose operations were fired later
// than this at the 99th percentile measured the generator, not the
// stack, and is reported invalid.
const maxLateShare = 0.5

func main() {
	processStart := time.Now()
	name := flag.String("workload", "", "workload: agg-steady, agg-overload, cf-engine or agglive-mixed")
	seed := flag.Uint64("seed", 1, "seed of the request templates and the arrival schedule")
	seconds := flag.Int("seconds", 30, "length of the measured window")
	traced := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, processStart); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run(w *workload, seed uint64, window time.Duration, traced bool, processStart time.Time) error {
	var st *stack
	var setupS []float64
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		var err error
		if st, err = buildStack(w, seed, tr); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if k < setups-1 {
			st.close()
		}
	}
	defer st.close()
	sort.Float64s(setupS)

	d := st.drive(seed, window)
	s := summarize(st, d)
	mismatches := d.mismatches
	acc := &s.acc
	var live *liveCheck
	if w.live {
		var err error
		if live, err = st.verifyLive(d); err != nil {
			return fmt.Errorf("post-load check: %w", err)
		}
		mismatches = append(mismatches, live.mismatches...)
		acc = &live.acc
	}
	correct := s.mismatches == 0 && len(mismatches) == 0

	fmt.Printf("workload %s  seed %d  window %v  traced %v\n", w.name, seed, window, traced)
	fmt.Printf("  setup_s runs: %v\n", setupS)
	fmt.Printf("  sent %d  succeeded %d  failed %d  (transport %d, error %d, rejected %d, unavailable %d)\n",
		s.sent, s.answered, s.sent-s.answered, s.transport, s.errs, s.rejected, s.unavail)
	if s.writes > 0 {
		fmt.Printf("  appends sent %d  acknowledged %d  failed %d\n", s.writes, s.writes-s.writeFails, s.writeFails)
	}
	e2e := endToEnd(st, d, s, setupS[len(setupS)/2], acc)
	// Tails are printed but not gated: on a shared 2-vCPU host their
	// run-to-run spread exceeds any bound the benchmark may set.
	var extra []metric
	for _, q := range []float64{0.9, 0.99} {
		v, sq := windowedQuantile(d, q)
		extra = append(extra, metric{"p" + pct(sq) + "_ms", "ms", v})
	}
	extra = append(extra,
		metric{"p" + pct(supportedQuantile(0.999, s.lat.n())) + "_ms_whole_window", "ms", s.lat.q(0.999)},
		metric{"fail_frac", "ratio", s.failFrac()},
		metric{"gen.late_p99_ms", "ms", s.late.q(0.99)})
	if s.writes > 0 {
		extra = append(extra, metric{"append_p" + pct(supportedQuantile(0.99, s.appendMs.n())) + "_ms", "ms", s.appendMs.q(0.99)})
	}
	if live != nil && !traced { // the traced run lists it with the layers
		extra = append(extra, metric{"cache.stale_served_post_load", "count", float64(live.staleCached)})
	}
	printMetrics(append(e2e, extra...))
	fmt.Printf("  latency sample %d answered reads\n", s.lat.n())
	for _, m := range mismatches {
		fmt.Println("  MISMATCH:", m)
	}

	out := e2e
	if traced {
		layers, err := perLayer(st, d, s)
		if err != nil {
			return err
		}
		stale := 0
		if live != nil {
			stale = live.staleCached
		}
		layers = append(layers, metric{"cache.stale_served_post_load", "count", float64(stale)})
		fmt.Println("  per-layer:")
		printMetrics(layers)
		if st.fe == nil {
			fmt.Println("  (no frontend: front.self_us is the front server and fan-out self time combined, and the fanout.* spans are unreachable)")
		}
		spansOut := filepath.Join(".bench_build", "spans-"+w.name+".tsv")
		if err := os.MkdirAll(filepath.Dir(spansOut), 0o755); err != nil {
			return err
		}
		if err := writeSpans(spansOut, st.tr.all(), st.fe != nil); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("  spans written to %s\n", spansOut)
		out = layers
	}
	if late, bound := s.late.q(0.99), maxLateShare*ms(w.limit); late > bound {
		return fmt.Errorf("run invalid: generator lateness p99 %.2f ms exceeds %.0f ms", late, bound)
	}
	res := map[string]any{
		"correct":   correct,
		"attempted": s.sent + s.writes,
		"failed":    s.transport + s.writeFails,
		"metrics":   jsonMetrics(out),
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

// pct formats a quantile as a percentile label: 0.99 -> "99".
func pct(q float64) string {
	return fmt.Sprintf("%g", float64(int(q*1e4+0.5))/100)
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		fmt.Printf("  %-32s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

func jsonMetrics(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}
