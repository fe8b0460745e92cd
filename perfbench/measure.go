package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"easytracker/internal/obs"
)

// median returns the middle of xs (the mean of the two middles for an even
// count); xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation; xs is
// sorted in place. An empty slice gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// memStats reads the runtime's allocation counters. It stops the world, so
// timed code never calls it between two timed calls.
func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeap forces two collections and returns the live heap in bytes. The
// second frees what goroutines of ended sessions still held during the
// first, so the figure does not depend on when they got to exit.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return memStats().HeapAlloc
}

// checkError is a failed correctness check or tracker call. It names the
// workload, seed, session and step, so a failure can be replayed.
type checkError struct {
	workload string
	seed     int64
	session  string
	step     int
	msg      string
}

func (e *checkError) Error() string {
	return fmt.Sprintf("workload %s seed %d session %s step %d: %s",
		e.workload, e.seed, e.session, e.step, e.msg)
}

// meter collects one run's end-to-end samples and, when tr is set, the
// benchmark's own spans around every call into a tracker.
type meter struct {
	workload string
	seed     int64
	tr       *tracer // nil when tracing is off

	session string // current session name, for failures
	step    int    // current step within the session, for failures

	opUs      []float64 // driving-call latencies
	stateUs   []float64 // first-State-after-pause latencies
	startMs   []float64 // session open through Start
	drives    int       // driving calls completed
	states    int       // State fetches completed
	attempted int       // operations attempted: tracker calls and checks
	failed    int       // operations that failed without failing the run
	lines     int64     // inferior lines executed (or recorded)
	lineTime  time.Duration
	settled   time.Duration // forced collections between sessions

	rounds []roundStats // one per completed round of a timed phase
}

// mark is a meter position at the start of a round.
type mark struct {
	ops, states, starts int
	lines               int64
	lineTime, settled   time.Duration
}

// roundStats are one round's medians and rates. The end-to-end metrics are
// medians over rounds, so a slow spell of the machine that covers a
// minority of a run's rounds does not move them.
type roundStats struct {
	opUs, stateUs, startMs float64
	opsPerS, linesPerS     float64
}

func (m *meter) mark() mark {
	return mark{len(m.opUs), len(m.stateUs), len(m.startMs), m.lines, m.lineTime, m.settled}
}

// endRound records the stats of the round that began at k and took wall,
// less the collections forced between its sessions.
func (m *meter) endRound(k mark, wall time.Duration) {
	wall -= m.settled - k.settled
	lineTime := m.lineTime - k.lineTime
	if lineTime == 0 {
		lineTime = wall
	}
	ops := len(m.opUs) - k.ops + len(m.stateUs) - k.states
	m.rounds = append(m.rounds, roundStats{
		opUs:      median(m.opUs[k.ops:]),
		stateUs:   median(m.stateUs[k.states:]),
		startMs:   median(m.startMs[k.starts:]),
		opsPerS:   float64(ops) / wall.Seconds(),
		linesPerS: float64(m.lines-k.lines) / lineTime.Seconds(),
	})
}

// settle forces a collection before a session, so every session starts
// from the same heap rather than from wherever the previous sessions left
// the collector; its time is left out of the round.
func (m *meter) settle() {
	t0 := time.Now()
	runtime.GC()
	m.settled += time.Since(t0)
}

// overRounds returns the median over rounds of one round statistic.
func (m *meter) overRounds(f func(roundStats) float64) float64 {
	xs := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

func newMeter(workload string, seed int64, tr *tracer) *meter {
	return &meter{workload: workload, seed: seed, tr: tr}
}

// fail builds a checkError at the current session and step.
func (m *meter) fail(format string, args ...any) error {
	return &checkError{m.workload, m.seed, m.session, m.step, fmt.Sprintf(format, args...)}
}

// begin opens a timed call into a layer; name is its span name. It
// returns the call's start.
func (m *meter) begin(name string) time.Time {
	m.attempted++
	m.tr.begin(name)
	return time.Now()
}

// end closes the call begun at t0 without classifying it (set-up calls
// such as Load).
func (m *meter) end(t0 time.Time, err error) (time.Duration, error) {
	d := time.Since(t0)
	m.tr.end()
	if err != nil {
		return d, m.fail("%v", err)
	}
	return d, nil
}

// drive closes a driving call (Resume, Step, Next, SeekTo, StepBack,
// ResumeBack, LastChange).
func (m *meter) drive(t0 time.Time, err error) error {
	d, err := m.end(t0, err)
	m.opUs = append(m.opUs, us(d))
	m.drives++
	m.step++
	return err
}

// state closes a State fetch.
func (m *meter) state(t0 time.Time, err error) error {
	d, err := m.end(t0, err)
	m.stateUs = append(m.stateUs, us(d))
	m.states++
	return err
}

// openSession starts a session span and resets the step counter.
func (m *meter) openSession(name string) time.Time {
	m.session = name
	m.step = 0
	m.tr.beginSession("session." + name)
	return time.Now()
}

// started records the session-start latency measured from t0.
func (m *meter) started(t0 time.Time) { m.startMs = append(m.startMs, ms(time.Since(t0))) }

func (m *meter) closeSession() { m.tr.end() }

// tracer records spans in memory: name, start, end, parent and one trace
// id per session. A layer's self time is its span minus its children.
// Every method is a no-op on a nil tracer, so untraced runs pay one
// pointer test per call.
type tracer struct {
	trace  uint64
	nextID uint64
	open   []openSpan
	recs   []obs.SpanRecord
	self   map[string][]float64 // self time in µs, by span name
}

type openSpan struct {
	name   string
	id     uint64
	parent uint64
	start  time.Time
	child  time.Duration
}

// maxSpanRecs caps the spans kept for the Chrome trace; self times are
// aggregated for every span regardless.
const maxSpanRecs = 50_000

func newTracer() *tracer { return &tracer{self: map[string][]float64{}} }

func (t *tracer) beginSession(name string) {
	if t == nil {
		return
	}
	t.nextID++
	t.trace = t.nextID
	t.begin(name)
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.nextID++
	var parent uint64
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].id
	}
	t.open = append(t.open, openSpan{name: name, id: t.nextID, parent: parent, start: time.Now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	s := t.open[n]
	t.open = t.open[:n]
	d := time.Since(s.start)
	if n > 0 {
		t.open[n-1].child += d
	}
	t.self[s.name] = append(t.self[s.name], us(d-s.child))
	if len(t.recs) < maxSpanRecs {
		t.recs = append(t.recs, obs.SpanRecord{
			TraceID: t.trace, SpanID: s.id, Parent: s.parent, Proc: "perfbench",
			Name: s.name, StartUnixNs: s.start.UnixNano(), DurNs: int64(d),
		})
	}
}

// span times f as one span; for layer probes outside any tracker session.
func (t *tracer) span(name string, f func() error) error {
	t.begin(name)
	err := f()
	t.end()
	return err
}

// selfMedian is the median self time of the spans named name, in µs.
func (t *tracer) selfMedian(name string) float64 {
	return median(append([]float64(nil), t.self[name]...))
}

// selfSum is the total self time of the spans named name, in µs.
func (t *tracer) selfSum(name string) float64 {
	s := 0.0
	for _, v := range t.self[name] {
		s += v
	}
	return s
}

// spanTimes are the durations and self times in µs of spans of one name.
type spanTimes struct{ total, self []float64 }

// programTimes groups the program's own spans (WithSpanTracing) by
// "proc/name"; children are found through Parent within one trace.
func programTimes(recs []obs.SpanRecord) map[string]*spanTimes {
	type key struct{ trace, span uint64 }
	child := map[key]int64{}
	for _, r := range recs {
		if r.Parent != 0 {
			child[key{r.TraceID, r.Parent}] += r.DurNs
		}
	}
	out := map[string]*spanTimes{}
	for _, r := range recs {
		k := r.Proc + "/" + r.Name
		if out[k] == nil {
			out[k] = &spanTimes{}
		}
		out[k].total = append(out[k].total, float64(r.DurNs)/1e3)
		out[k].self = append(out[k].self, float64(r.DurNs-child[key{r.TraceID, r.SpanID}])/1e3)
	}
	return out
}
