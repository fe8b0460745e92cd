package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"easytracker/internal/core"
	"easytracker/internal/dbg"
	"easytracker/internal/gdbtracker"
	"easytracker/internal/isa"
	"easytracker/internal/minic"
	"easytracker/internal/minipy"
	"easytracker/internal/obs"
	"easytracker/internal/pt"
	"easytracker/internal/pytracker"
	"easytracker/internal/query"
	"easytracker/internal/spanexport"
	"easytracker/internal/ttd"
	"easytracker/internal/vm"
)

// The traced run. It times the workload once untraced and once with the
// benchmark's spans (and the program's own span tracing) on, runs one
// traced round of every other workload, then runs layer probes: short
// loops around single calls into one module each. Every per-layer metric
// is computed from the spans' self times or from counters read around the
// calls; derived metrics are differences between two such timings.

// traceDir holds the Chrome traces of traced runs.
const traceDir = ".bench_build"

// traced is one workload's part of a traced run.
type traced struct {
	w     workload
	m     *meter
	alloc allocs
}

// resetCounters zeroes w's byte counters before its traced phase.
func resetCounters(w workload) {
	switch w := w.(type) {
	case *pyProbe:
		if w.ln != nil {
			w.ln.in.Store(0)
			w.ln.out.Store(0)
		}
	case *cmiStep:
		w.mi.sent.Store(0)
		w.mi.recv.Store(0)
	}
}

// programSpans returns the spans the program recorded for w's sessions,
// and for a remote workload the server's spans too.
func programSpans(w workload) []obs.SpanRecord {
	spans := w.traceSpans().spans
	if p, ok := w.(*pyProbe); ok && p.srv != nil {
		spans = append(spans, p.srv.Spans()...)
	}
	return spans
}

func runTraced(name string, seed int64, seconds float64) (*result, error) {
	tr := newTracer()
	parts := map[string]*traced{}
	defer func() {
		for _, p := range parts {
			p.w.close()
		}
	}()
	var overhead map[string]float64
	for _, wl := range workloads {
		w, _, err := setupWorkload(wl, seed, true)
		if err != nil {
			return nil, err
		}
		p := &traced{w: w, m: newMeter(wl, seed, tr)}
		parts[wl] = p
		// The named workload runs for the full time, untraced first for
		// the tracing overhead; every other workload runs one round.
		var secs float64
		plain := newMeter(wl, seed, nil)
		if wl == name {
			secs = seconds
			if _, err := timed(w, plain, seconds/2); err != nil {
				return nil, err
			}
		}
		w.traceSpans().on = true
		resetCounters(w)
		if p.alloc, err = timed(w, p.m, secs); err != nil {
			return nil, err
		}
		if wl == name {
			overhead = map[string]float64{
				"op_p50_us_untraced":    median(plain.opUs),
				"op_p50_us_traced":      median(p.m.opUs),
				"state_p50_us_untraced": median(plain.stateUs),
				"state_p50_us_traced":   median(p.m.stateUs),
			}
			overhead["op_p50_us_diff"] = overhead["op_p50_us_traced"] - overhead["op_p50_us_untraced"]
			overhead["state_p50_us_diff"] = overhead["state_p50_us_traced"] - overhead["state_p50_us_untraced"]
		}
	}
	metrics, err := layerMetrics(tr, parts)
	if err != nil {
		return nil, err
	}
	var progSpans []obs.SpanRecord
	for _, wl := range workloads {
		progSpans = append(progSpans, programSpans(parts[wl].w)...)
	}
	printJSON("tracing_overhead", overhead)
	printJSON("self_time", selfTable(tr))
	printJSON("cross_check", crossCheck(tr, progSpans))
	if err := writeChromeTrace(name, seed, tr, progSpans); err != nil {
		return nil, err
	}
	own := parts[name].m
	return &result{Correct: true, Attempted: own.attempted, Failed: own.failed, Metrics: metrics}, nil
}

func printJSON(key string, v any) {
	b, err := json.Marshal(map[string]any{key: v})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Println(string(b))
}

// layerMetrics runs the layer probes and computes every per-layer metric.
func layerMetrics(tr *tracer, parts map[string]*traced) (map[string]metric, error) {
	out := map[string]metric{}
	for _, probe := range []func(*tracer, map[string]*traced, map[string]metric) error{
		pyLocalLayers, pyRemoteLayers, recordLayers, cmiLayers,
	} {
		if err := probe(tr, parts, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// perOp divides a whole-round figure by the round's tracker calls.
func perOp(v float64, m *meter) float64 { return v / float64(m.drives+m.states) }

func pyLocalLayers(tr *tracer, parts map[string]*traced, out map[string]metric) error {
	progs := parts["py-probe-local"].w.(*pyProbe).progs
	const reps = 5
	var lines int64
	for _, p := range progs {
		for r := 0; r < reps; r++ {
			var mod *minipy.Module
			if err := tr.span("minipy.compile", func() error {
				var err error
				if mod, err = minipy.Parse(p.path, p.src); err == nil {
					minipy.Compile(mod)
				}
				return err
			}); err != nil {
				return err
			}
			in := minipy.NewInterp(mod)
			if err := tr.span("minipy.run", func() error {
				_, err := in.Run()
				return err
			}); err != nil {
				return err
			}
			t := pytracker.New()
			if err := t.LoadProgram(p.path, core.WithSource(p.src)); err != nil {
				return err
			}
			if err := tr.span("pytracker.run", func() error {
				if err := t.Start(); err != nil {
					return err
				}
				return t.Resume()
			}); err != nil {
				return err
			}
			if _, done := t.ExitCode(); !done {
				return fmt.Errorf("%s: unprobed run did not exit", p.name)
			}
			_ = t.Terminate() // exited already
			lines += p.lines
		}
	}
	native := tr.selfSum("minipy.run")
	out["minipy.compile_us"] = metric{tr.selfMedian("minipy.compile"), "us"}
	out["minipy.native_lines_per_s"] = metric{float64(lines) / (native / 1e6), "1/s"}
	out["pytracker.hook_ns_per_line"] = metric{(tr.selfSum("pytracker.run") - native) * 1e3 / float64(lines), "ns"}
	out["pytracker.resume_us"] = metric{tr.selfMedian("pytracker.resume"), "us"}
	out["pytracker.state_us"] = metric{tr.selfMedian("pytracker.state"), "us"}

	// Allocations per watch pause: Resume-only sessions of the sorts.
	var mallocs, pauses uint64
	for _, p := range progs {
		if p.shape != shapeSort {
			continue
		}
		t := pytracker.New()
		if err := t.LoadProgram(p.path, core.WithSource(p.src)); err != nil {
			return err
		}
		if err := t.Start(); err != nil {
			return err
		}
		if err := t.Watch("::swaps"); err != nil {
			return err
		}
		before := memStats().Mallocs
		for {
			if err := t.Resume(); err != nil {
				return err
			}
			if _, done := t.ExitCode(); done {
				break
			}
			pauses++
		}
		mallocs += memStats().Mallocs - before
		_ = t.Terminate() // exited already
	}
	out["pytracker.allocs_per_pause"] = metric{float64(mallocs) / float64(pauses), "count"}

	// Condition evaluation over a State snapshot at the loop's first hit.
	var loop *program
	for _, p := range progs {
		if p.shape == shapeLoop {
			loop = p
		}
	}
	st, err := firstPauseState(loop)
	if err != nil {
		return err
	}
	prog, err := query.Compile(loop.cond)
	if err != nil {
		return err
	}
	view := &query.StateView{EventName: "line", LineNo: loop.breakLine, FileName: loop.path, State: st}
	const evals = 10000
	for r := 0; r < reps; r++ {
		if err := tr.span("query.eval", func() error {
			for i := 0; i < evals; i++ {
				if !prog.Match(view) {
					return fmt.Errorf("condition %q is false at its first hit", loop.cond)
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	out["query.eval_ns"] = metric{tr.selfMedian("query.eval") * 1e3 / evals, "ns"}
	return nil
}

// firstPauseState runs p locally to its first probe pause and returns the
// State there.
func firstPauseState(p *program) (*core.State, error) {
	t := pytracker.New()
	defer t.Terminate()
	if err := t.LoadProgram(p.path, core.WithSource(p.src)); err != nil {
		return nil, err
	}
	if err := t.Start(); err != nil {
		return nil, err
	}
	if err := arm(t, p, true); err != nil {
		return nil, err
	}
	if err := t.Resume(); err != nil {
		return nil, err
	}
	return t.State()
}

func pyRemoteLayers(tr *tracer, parts map[string]*traced, out map[string]metric) error {
	rem, loc := parts["py-probe-remote"], parts["py-probe-local"]
	w := rem.w.(*pyProbe)
	// States and pause reasons of the largest sort, fetched locally.
	p := w.progs[len(pyProbeSorts)-1]
	t := pytracker.New()
	defer t.Terminate()
	if err := t.LoadProgram(p.path, core.WithSource(p.src)); err != nil {
		return err
	}
	if err := t.Start(); err != nil {
		return err
	}
	if err := t.Watch("::swaps"); err != nil {
		return err
	}
	var states []*core.State
	var reasons []core.PauseReason
	for {
		if err := t.Resume(); err != nil {
			return err
		}
		if _, done := t.ExitCode(); done {
			break
		}
		st, err := t.State()
		if err != nil {
			return err
		}
		states, reasons = append(states, st), append(reasons, t.PauseReason())
	}
	var jsonBytes int
	for _, st := range states {
		var js []byte
		if err := tr.span("core.state_encode", func() error {
			var err error
			js, err = json.Marshal(st)
			return err
		}); err != nil {
			return err
		}
		jsonBytes += len(js)
		if err := tr.span("core.state_decode", func() error {
			var back core.State
			return json.Unmarshal(js, &back)
		}); err != nil {
			return err
		}
	}
	const codecReps = 100
	for _, r := range reasons {
		if err := tr.span("core.reason_codec", func() error {
			for i := 0; i < codecReps; i++ {
				js, err := core.EncodePauseReasonJSON(r)
				if err != nil {
					return err
				}
				if _, err := core.DecodePauseReasonJSON(js); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	out["core.state_encode_us"] = metric{tr.selfMedian("core.state_encode"), "us"}
	out["core.state_decode_us"] = metric{tr.selfMedian("core.state_decode"), "us"}
	out["core.state_json_kb"] = metric{float64(jsonBytes) / 1024 / float64(len(states)), "KB"}
	out["core.reason_codec_ns"] = metric{tr.selfMedian("core.reason_codec") * 1e3 / codecReps, "ns"}
	out["remote.connect_ms"] = metric{tr.selfMedian("remote.open") / 1e3, "ms"}
	remoteUs := perOp(tr.selfSum("remote.resume")+tr.selfSum("remote.state"), rem.m)
	localUs := perOp(tr.selfSum("pytracker.resume")+tr.selfSum("pytracker.state"), loc.m)
	out["remote.wire_us_per_op"] = metric{remoteUs - localUs, "us"}
	out["remote.bytes_in_per_op"] = metric{perOp(float64(w.ln.in.Load()), rem.m), "B"}
	out["remote.bytes_out_per_op"] = metric{perOp(float64(w.ln.out.Load()), rem.m), "B"}
	out["remote.allocs_per_op"] = metric{perOp(float64(rem.alloc.objects), rem.m), "count"}
	return nil
}

func recordLayers(tr *tracer, parts map[string]*traced, out map[string]metric) error {
	w := parts["py-record-seek"].w.(*recordSeek)
	big, small := w.progs[len(w.progs)-1], w.progs[0]
	const reps = 3
	var steps int
	var recMallocs, plainMallocs uint64
	var store *ttd.Store
	for r := 0; r < reps; r++ {
		for _, recorded := range []bool{false, true} {
			opts := []core.LoadOption{core.WithSource(big.src)}
			name := "ttd.run_plain"
			if recorded {
				opts, name = append(opts, core.WithRecording(0)), "ttd.run_recorded"
			}
			t := pytracker.New()
			if err := t.LoadProgram(big.path, opts...); err != nil {
				return err
			}
			before := memStats().Mallocs
			if err := tr.span(name, func() error { return runWatched(t) }); err != nil {
				return err
			}
			used := memStats().Mallocs - before
			if recorded {
				recMallocs += used
				steps += t.Len()
				store = t.Recording()
			} else {
				plainMallocs += used
			}
			_ = t.Terminate() // exited already
		}
	}
	out["ttd.record_ns_per_step"] = metric{(tr.selfSum("ttd.run_recorded") - tr.selfSum("ttd.run_plain")) * 1e3 / float64(steps), "ns"}
	out["ttd.allocs_per_step"] = metric{float64(recMallocs-plainMallocs) / float64(steps), "count"}

	n := store.Len()
	for _, f := range w.fracs {
		i := 1 + int(f*float64(n-3))
		if err := tr.span("ttd.state_at", func() error {
			_, err := store.StateAt(i)
			return err
		}); err != nil {
			return err
		}
		if err := tr.span("ttd.last_change", func() error {
			_, err := store.LastChange("::swaps", i)
			return err
		}); err != nil {
			return err
		}
	}
	out["ttd.state_at_us"] = metric{tr.selfMedian("ttd.state_at"), "us"}
	out["ttd.last_change_us"] = metric{tr.selfMedian("ttd.last_change"), "us"}

	data, err := store.Trace().Encode()
	if err != nil {
		return err
	}
	for r := 0; r < reps; r++ {
		if err := tr.span("pt.decode_v2", func() error {
			_, err := pt.DecodeV2(data)
			return err
		}); err != nil {
			return err
		}
	}
	out["pt.encode_v2_ms"] = metric{tr.selfMedian("pt.encode_v2") / 1e3, "ms"}
	out["pt.decode_v2_ms"] = metric{tr.selfMedian("pt.decode_v2") / 1e3, "ms"}
	out["pt.v2_bytes_per_step"] = metric{float64(len(data)) / float64(n), "B"}
	data, store = nil, nil

	// Retained bytes: the live heap with a recorded session open after its
	// run, minus the live heap before the session was opened.
	base := liveHeap()
	t := pytracker.New()
	if err := t.LoadProgram(big.path, core.WithSource(big.src), core.WithRecording(0)); err != nil {
		return err
	}
	if err := runWatched(t); err != nil {
		return err
	}
	open := liveHeap()
	out["ttd.retained_bytes_per_step"] = metric{(float64(open) - float64(base)) / float64(t.Len()), "B"}
	_ = t.Terminate() // exited already

	// A v1 full-step trace of the smallest program, converted to a Store.
	v1 := pytracker.New()
	var stdout strings.Builder
	if err := v1.LoadProgram(small.path, core.WithSource(small.src), core.WithStdout(&stdout)); err != nil {
		return err
	}
	trace, err := pt.Record(v1, &stdout, pt.Options{Mode: pt.ModeFullStep, Lang: "minipy"})
	if err != nil {
		return err
	}
	for r := 0; r < reps; r++ {
		if err := tr.span("ttd.from_v1", func() error {
			_, err := ttd.FromTrace(trace, 0)
			return err
		}); err != nil {
			return err
		}
	}
	out["ttd.from_v1_ms"] = metric{tr.selfMedian("ttd.from_v1") / 1e3, "ms"}
	out["tracetracker.seek_us"] = metric{tr.selfMedian("tracetracker.seek_to"), "us"}
	return nil
}

// runWatched starts a loaded MiniPy tracker, watches the swap counter and
// resumes to exit.
func runWatched(t *pytracker.Tracker) error {
	if err := t.Start(); err != nil {
		return err
	}
	if err := t.Watch("::swaps"); err != nil {
		return err
	}
	for {
		if err := t.Resume(); err != nil {
			return err
		}
		if _, done := t.ExitCode(); done {
			return nil
		}
	}
}

func cmiLayers(tr *tracer, parts map[string]*traced, out map[string]metric) error {
	part := parts["c-mi-step"]
	w := part.w.(*cmiStep)
	const reps = 5
	var instrs uint64
	for _, p := range []*program{w.step, w.watch, w.rec} {
		for r := 0; r < reps; r++ {
			var prog *isa.Program
			if err := tr.span("minic.compile", func() error {
				var err error
				prog, err = minic.Compile(p.path, p.src)
				return err
			}); err != nil {
				return err
			}
			mach, err := vm.New(prog, vm.Config{Stdout: io.Discard})
			if err != nil {
				return err
			}
			if err := tr.span("vm.run", func() error {
				if stop := mach.Run(0); stop.Kind != vm.StopExit {
					return fmt.Errorf("%s: native run stopped with %v", p.name, stop.Kind)
				}
				return nil
			}); err != nil {
				return err
			}
			instrs += mach.Steps()
		}
	}
	out["minic.compile_ms"] = metric{tr.selfMedian("minic.compile") / 1e3, "ms"}
	out["vm.native_instr_per_s"] = metric{float64(instrs) / (tr.selfSum("vm.run") / 1e6), "1/s"}
	out["gdbtracker.session_boot_ms"] = metric{(tr.selfMedian("gdbtracker.load") + tr.selfMedian("gdbtracker.start")) / 1e3, "ms"}
	out["gdbtracker.state_us"] = metric{tr.selfMedian("gdbtracker.state"), "us"}
	out["mi.bytes_per_op"] = metric{perOp(float64(w.mi.sent.Load()+w.mi.recv.Load()), part.m), "B"}

	// Direct debugger steps over the step-run program, then the same run
	// through MI, counting allocations for both.
	prog, err := minic.Compile(w.step.path, w.step.src)
	if err != nil {
		return err
	}
	var directMallocs, miMallocs, steps uint64
	for r := 0; r < reps; r++ {
		d, err := dbg.New(prog, vm.Config{Stdout: io.Discard})
		if err != nil {
			return err
		}
		if _, err := d.Start(); err != nil {
			return err
		}
		before := memStats().Mallocs
		for {
			if _, done := d.Exited(); done {
				break
			}
			if err := tr.span("dbg.step_line", func() error {
				_, err := d.StepLine(nil)
				return err
			}); err != nil {
				return err
			}
			steps++
		}
		directMallocs += memStats().Mallocs - before

		g := gdbtracker.New()
		if err := g.LoadProgram(w.step.path, core.WithSource(w.step.src), core.WithHeapTracking()); err != nil {
			return err
		}
		if err := g.Start(); err != nil {
			return err
		}
		before = memStats().Mallocs
		for {
			if err := g.Step(); err != nil {
				return err
			}
			if _, done := g.ExitCode(); done {
				break
			}
		}
		miMallocs += memStats().Mallocs - before
		_ = g.Terminate() // exited already
	}
	out["dbg.step_line_us"] = metric{tr.selfMedian("dbg.step_line"), "us"}
	out["mi.overhead_us_per_step"] = metric{tr.selfMedian("gdbtracker.step") - tr.selfMedian("dbg.step_line"), "us"}
	out["mi.allocs_per_step"] = metric{(float64(miMallocs) - float64(directMallocs)) / float64(steps), "count"}
	return nil
}

// selfTable summarizes the benchmark's spans by name: count, median and
// total self time.
func selfTable(tr *tracer) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for name, xs := range tr.self {
		out[name] = map[string]float64{
			"count": float64(len(xs)), "self_p50_us": tr.selfMedian(name), "self_total_ms": tr.selfSum(name) / 1e3,
		}
	}
	return out
}

// crossCheck sets the program's own spans beside the benchmark's outside
// timings of the same calls: the program's span of a call should last about
// as long as the benchmark's span around it. Disagreement is reported, not
// gated. The table holds every program span, with its self time.
func crossCheck(tr *tracer, prog []obs.SpanRecord) map[string]any {
	type row struct {
		Count    int     `json:"count"`
		TotalP50 float64 `json:"total_p50_us"`
		SelfP50  float64 `json:"self_p50_us"`
	}
	table := map[string]row{}
	for name, t := range programTimes(prog) {
		table[name] = row{len(t.total), median(t.total), median(t.self)}
	}
	var pairs []map[string]any
	for _, pr := range [][2]string{
		{"pytracker.resume", "minipy/op.resume"},
		{"pytracker.state", "minipy/op.state_fetch"},
		{"gdbtracker.step", "minigdb/op.step"},
		{"gdbtracker.resume", "minigdb/op.resume"},
		{"gdbtracker.state", "minigdb/op.state_fetch"},
		{"remote.resume", "remote[minipy]/remote.call.resume"},
		{"remote.state", "remote[minipy]/remote.call.state"},
	} {
		mine, theirs := tr.selfMedian(pr[0]), table[pr[1]].TotalP50
		pairs = append(pairs, map[string]any{
			"outside": pr[0], "outside_p50_us": mine,
			"program": pr[1], "program_p50_us": theirs,
			"ratio": finite(mine / theirs),
		})
	}
	return map[string]any{"program_spans": table, "pairs": pairs}
}

func finite(x float64) any {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	return x
}

// writeChromeTrace writes the benchmark's and the program's spans as one
// Chrome trace under traceDir.
func writeChromeTrace(name string, seed int64, tr *tracer, prog []obs.SpanRecord) error {
	if len(prog) > maxSpanRecs {
		prog = prog[len(prog)-maxSpanRecs:]
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("perfbench-%s-%d.trace.json", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = spanexport.WriteChromeTrace(f,
		&spanexport.Dump{Proc: "perfbench", Spans: tr.recs},
		&spanexport.Dump{Proc: "program", Spans: prog})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Fprintln(os.Stderr, "perfbench: wrote", path)
	return nil
}
