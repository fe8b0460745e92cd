// Command perfbench is the end-to-end and per-layer benchmark of the
// trackers. It runs one seeded workload for a fixed time against the
// trackers' public API, checks every output against Go reference models,
// and prints one JSON result line:
//
//	perfbench --workload py-probe-local --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, timed from outside around calls into each
// module, and a Chrome trace of the benchmark's spans is written under
// .bench_build/. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// workload is one seeded closed-loop workload: one client, one session and
// at most one connection at a time.
type workload interface {
	// setup builds the programs and their reference results, compiles
	// them, starts any server and runs one warm-up session per shape.
	setup(seed int64) error
	// round runs every session of the workload once.
	round(m *meter) error
	// heapLive returns the live heap after a forced GC with the
	// workload's last session still open.
	heapLive() (uint64, error)
	// close stops what setup started.
	close()
	// traceSpans switches the program's own span tracing and holds its
	// spans, for the traced run.
	traceSpans() *progSpans
}

var workloads = []string{"py-probe-local", "py-probe-remote", "py-record-seek", "c-mi-step"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "py-probe-local":
		return &pyProbe{}, nil
	case "py-probe-remote":
		return &pyProbe{remote: true}, nil
	case "py-record-seek":
		return &recordSeek{}, nil
	case "c-mi-step":
		return &cmiStep{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloads)
}

// setupReps is how many times set-up runs; setup_s is their median and the
// last one's state is kept.
const setupReps = 11

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupWorkload sets name up setupReps times and returns the last set-up
// and the median set-up time. A traced set-up keeps room for the spans of
// every session.
func setupWorkload(name string, seed int64, traced bool) (workload, float64, error) {
	var times []float64
	var w workload
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		var err error
		if w, err = newWorkload(name); err != nil {
			return nil, 0, err
		}
		if p, ok := w.(*pyProbe); ok && traced {
			p.serverSpans = 1 << 16
		}
		if err := w.setup(seed); err != nil {
			w.close()
			return nil, 0, fmt.Errorf("set-up of %s: %w", name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return w, median(times), nil
}

// allocs is what the whole process allocated during a phase.
type allocs struct{ bytes, objects uint64 }

// timed runs whole rounds of w, at least one, until seconds have passed and
// returns what was allocated meanwhile.
func timed(w workload, m *meter, seconds float64) (allocs, error) {
	runtime.GC()
	before := memStats()
	t0 := time.Now()
	for first := true; first || time.Since(t0).Seconds() < seconds; first = false {
		k, r0 := m.mark(), time.Now()
		if err := w.round(m); err != nil {
			return allocs{}, err
		}
		m.endRound(k, time.Since(r0))
	}
	after := memStats()
	return allocs{after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs}, nil
}

// endToEnd computes the end-to-end metrics of a timed phase, all but
// heap_live_mb. Latencies and rates are medians over rounds of each
// round's median or rate; allocation is the phase total per driving call.
func endToEnd(m *meter, alloc allocs, setupS float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"session_start_ms": {m.overRounds(func(r roundStats) float64 { return r.startMs }), "ms"},
		"op_p50_us":        {m.overRounds(func(r roundStats) float64 { return r.opUs }), "us"},
		"state_p50_us":     {m.overRounds(func(r roundStats) float64 { return r.stateUs }), "us"},
		"lines_per_s":      {m.overRounds(func(r roundStats) float64 { return r.linesPerS }), "1/s"},
		"ops_per_s":        {m.overRounds(func(r roundStats) float64 { return r.opsPerS }), "1/s"},
		"alloc_kb_per_op":  {float64(alloc.bytes) / 1024 / float64(m.drives), "KB"},
	}
}

// reference prints figures that have no bound: the tail percentile and
// the sample counts.
func reference(name string, m *meter) {
	ref := map[string]any{
		"workload":      name,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"driving_calls": m.drives,
		"state_fetches": m.states,
		"sessions":      len(m.startMs),
		"rounds":        len(m.rounds),
		"op_us":         quantiles(m.opUs),
		"state_us":      quantiles(m.stateUs),
	}
	b, _ := json.Marshal(map[string]any{"reference": ref})
	fmt.Println(string(b))
}

// quantiles returns the deciles and the 99th percentile of xs.
func quantiles(xs []float64) map[string]float64 {
	out := map[string]float64{"p99": quantile(xs, 0.99)}
	for q := 10; q < 100; q += 10 {
		out[fmt.Sprintf("p%d", q)] = quantile(xs, float64(q)/100)
	}
	return out
}

func run(name string, seed int64, seconds float64, trace bool) (*result, error) {
	if trace {
		return runTraced(name, seed, seconds)
	}
	w, setupS, err := setupWorkload(name, seed, false)
	if err != nil {
		return nil, err
	}
	defer w.close()
	m := newMeter(name, seed, nil)
	alloc, err := timed(w, m, seconds)
	if err != nil {
		return nil, err
	}
	metrics := endToEnd(m, alloc, setupS)
	reference(name, m)
	res := &result{Correct: true, Attempted: m.attempted, Failed: m.failed, Metrics: metrics}
	m = nil // drop the samples before measuring the live heap
	heap, err := w.heapLive()
	if err != nil {
		return nil, err
	}
	res.Metrics["heap_live_mb"] = metric{float64(heap) / (1 << 20), "MB"}
	return res, nil
}

func main() {
	name := flag.String("workload", "", "workload: py-probe-local, py-probe-remote, py-record-seek or c-mi-step")
	seed := flag.Int64("seed", 1, "seed of the generated programs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	res, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		var ce *checkError
		if errors.As(err, &ce) {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		} else {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(1)
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no samples\n", k)
			os.Exit(1)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
