package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"time"

	"easytracker"
	"easytracker/internal/ttd"
)

// recordSeek is the py-record-seek workload: sort programs run to exit under
// WithRecording(0) with the swap counter watched, then a seeded read mix on
// the live session and the same mix on a trace tracker loaded from the
// recording encoded as v2.
type recordSeek struct {
	progs []*program
	// fracs places the mix's scattered seek targets as fractions of the
	// recording, so every seed seeks equally far into equal recordings.
	fracs []float64

	progSpans
}

// liveTT names the spans of the live recorded sessions, apart from the
// probe sessions' pytracker spans.
const liveTT = "pytracker.tt"

// seekTargets is the number of scattered targets in one read mix.
const seekTargets = 8

// recorder is the live MiniPy tracker's view of its recording.
type recorder interface{ Recording() *ttd.Store }

func (w *recordSeek) setup(seed int64) error {
	w.progs = recordPrograms(seed)
	for _, p := range w.progs {
		if err := countLines(p); err != nil {
			return err
		}
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	w.fracs = make([]float64, seekTargets)
	for i := range w.fracs {
		w.fracs[i] = 0.1 + 0.85*r.Float64()
	}
	return warmUp(w.progs[:1], w.session)
}

func (w *recordSeek) close() {}

func (w *recordSeek) round(m *meter) error {
	for _, p := range w.progs {
		m.settle()
		if err := w.session(m, p); err != nil {
			return err
		}
	}
	return nil
}

func (w *recordSeek) session(m *meter, p *program) error {
	data, pauses, states, err := w.live(m, p)
	if err != nil {
		return err
	}
	return w.replay(m, p, data, pauses, states)
}

// live records p in a live session and applies the read mix to it. It
// returns the recording encoded as v2, the number of forward watch pauses
// and the State JSON at the mix's targets.
func (w *recordSeek) live(m *meter, p *program) (data []byte, pauses int, states [][]byte, err error) {
	const L = liveTT
	t0 := m.openSession(p.name + "/live")
	defer m.closeSession()
	c := m.begin(L + ".open")
	tr, err := easytracker.New("minipy")
	if _, err := m.end(c, err); err != nil {
		return nil, 0, nil, err
	}
	defer func() {
		w.collect(tr)
		if terr := terminate(m, L, tr); err == nil {
			err = terr
		}
	}()
	if pauses, err = w.record(m, tr, p, t0); err != nil {
		return nil, 0, nil, err
	}
	if err := w.checkLast(m, L, tr, p); err != nil {
		return nil, 0, nil, err
	}
	if states, err = w.mix(m, L, tr, p, pauses, nil); err != nil {
		return nil, 0, nil, err
	}
	rec, ok := tr.(recorder)
	if !ok {
		return nil, 0, nil, m.fail("live tracker exposes no recording")
	}
	c = m.begin("pt.encode_v2")
	data, err = rec.Recording().Trace().Encode()
	_, err = m.end(c, err)
	return data, pauses, states, err
}

// record loads p into tr with recording on, runs it to exit with the swap
// counter watched and checks its output. It returns the number of watch
// pauses; t0 is when the session was opened.
func (w *recordSeek) record(m *meter, tr easytracker.Tracker, p *program, t0 time.Time) (int, error) {
	const L = liveTT
	var out strings.Builder
	c := m.begin(L + ".load")
	if _, err := m.end(c, tr.LoadProgram(p.path, w.loadOpts(p.src, &out, easytracker.WithRecording(0))...)); err != nil {
		return 0, err
	}
	run0 := time.Now()
	c = m.begin(L + ".start")
	if _, err := m.end(c, tr.Start()); err != nil {
		return 0, err
	}
	m.started(t0)
	if err := tr.Watch("::swaps"); err != nil {
		return 0, m.fail("watch: %v", err)
	}
	pauses := 0
	for {
		c = m.begin(L + ".record_resume")
		if _, err := m.end(c, tr.Resume()); err != nil {
			return 0, err
		}
		if code, done := tr.ExitCode(); done {
			if code != 0 {
				return 0, m.fail("exit code %d", code)
			}
			break
		}
		pauses++
	}
	m.lineTime += time.Since(run0)
	_, n, ok := easytracker.ReplayPos(tr)
	if !ok {
		return 0, m.fail("live session has no recording")
	}
	m.lines += int64(n)
	if out.String() != p.out {
		return 0, m.fail("stdout %q, model %q", out.String(), p.out)
	}
	return pauses, nil
}

// replay loads the v2 bytes into a trace tracker and applies the same mix,
// which must reproduce the live session's State JSON.
func (w *recordSeek) replay(m *meter, p *program, data []byte, pauses int, live [][]byte) (err error) {
	const L = "tracetracker"
	t0 := m.openSession(p.name + "/replay")
	defer m.closeSession()
	c := m.begin(L + ".open")
	tr, err := easytracker.New("trace")
	if _, err := m.end(c, err); err != nil {
		return err
	}
	defer func() {
		w.collect(tr)
		if terr := terminate(m, L, tr); err == nil {
			err = terr
		}
	}()
	var out strings.Builder
	c = m.begin(L + ".load")
	if _, err := m.end(c, tr.LoadProgram(p.name+".trace", w.loadOpts(string(data), &out)...)); err != nil {
		return err
	}
	c = m.begin(L + ".start")
	if _, err := m.end(c, tr.Start()); err != nil {
		return err
	}
	m.started(t0)
	if err := tr.Watch("::swaps"); err != nil {
		return m.fail("watch: %v", err)
	}
	if err := w.checkLast(m, L, tr, p); err != nil {
		return err
	}
	_, err = w.mix(m, L, tr, p, pauses, live)
	return err
}

// timeTravel bundles the capabilities the read mix uses.
type timeTravel struct {
	tt easytracker.TimeTraveler
	rw easytracker.ReverseWatcher
	sp easytracker.StateProvider
}

func capsOf(m *meter, tr easytracker.Tracker) (*timeTravel, error) {
	tt, ok1 := easytracker.As[easytracker.TimeTraveler](tr)
	rw, ok2 := easytracker.As[easytracker.ReverseWatcher](tr)
	sp, ok3 := easytracker.As[easytracker.StateProvider](tr)
	if !ok1 || !ok2 || !ok3 {
		return nil, m.fail("tracker lacks time travel, reverse watch or State")
	}
	return &timeTravel{tt, rw, sp}, nil
}

// seekState seeks to step i and fetches the State there.
func seekState(m *meter, L string, t *timeTravel, i int) (*easytracker.State, error) {
	c := m.begin(L + ".seek_to")
	if err := m.drive(c, t.tt.SeekTo(i)); err != nil {
		return nil, err
	}
	c = m.begin(L + ".state")
	st, err := t.sp.State()
	return st, m.state(c, err)
}

// checkLast checks that the last recorded state holds the sorted list and
// the model's swap count.
func (w *recordSeek) checkLast(m *meter, L string, tr easytracker.Tracker, p *program) error {
	t, err := capsOf(m, tr)
	if err != nil {
		return err
	}
	st, err := seekState(m, L, t, t.tt.Len()-1)
	if err != nil {
		return err
	}
	want := p.snaps[p.swaps()]
	if got, ok := intsOf(global(st, "data")); !ok || !equalInts(got, want) {
		return m.fail("last recorded data %v, model %v", got, want)
	}
	if got, ok := intOf(global(st, "swaps")); !ok || int(got) != p.swaps() {
		return m.fail("last recorded swaps %d, model %d", got, p.swaps())
	}
	return nil
}

// mix applies the seeded read mix: scattered SeekTo plus State, StepBack
// from the next step, LastChange on the swap counter, and a ResumeBack sweep
// from the end with the watch armed. It returns the State JSON at each
// target; when want is given, the JSON must equal it byte for byte.
func (w *recordSeek) mix(m *meter, L string, tr easytracker.Tracker, p *program, pauses int, want [][]byte) ([][]byte, error) {
	t, err := capsOf(m, tr)
	if err != nil {
		return nil, err
	}
	n := t.tt.Len()
	got := make([][]byte, len(w.fracs))
	for k, f := range w.fracs {
		i := 1 + int(f*float64(n-3))
		st, err := seekState(m, L, t, i)
		if err != nil {
			return nil, err
		}
		js, err := json.Marshal(st)
		if err != nil {
			return nil, m.fail("encode State at %d: %v", i, err)
		}
		if want != nil && !bytes.Equal(js, want[k]) {
			return nil, m.fail("State at step %d differs from the live session's", i)
		}
		got[k] = js
		if err := m.drive(m.begin(L+".seek_to"), t.tt.SeekTo(i+1)); err != nil {
			return nil, err
		}
		if err := m.drive(m.begin(L+".step_back"), t.tt.StepBack()); err != nil {
			return nil, err
		}
		c := m.begin(L + ".state")
		back, err := t.sp.State()
		if err := m.state(c, err); err != nil {
			return nil, err
		}
		if bjs, err := json.Marshal(back); err != nil || !bytes.Equal(bjs, js) {
			return nil, m.fail("State after StepBack to %d differs from SeekTo(%d) (%v)", i, i, err)
		}
		if err := w.checkLastChange(m, L, t, i, st); err != nil {
			return nil, err
		}
	}
	// ResumeBack from the end stops once per forward watch pause.
	if err := m.drive(m.begin(L+".seek_to"), t.tt.SeekTo(n-1)); err != nil {
		return nil, err
	}
	// Every stop but the last, at the recording's start, is on the watch.
	stops := 0
	for t.tt.Pos() > 0 {
		if stops > 0 && tr.PauseReason().Type != easytracker.PauseWatch {
			return nil, m.fail("ResumeBack stop %d at step %d is %v", stops, t.tt.Pos(), tr.PauseReason())
		}
		if stops > pauses {
			return nil, m.fail("ResumeBack did not reach the start after %d stops", stops)
		}
		if err := m.drive(m.begin(L+".resume_back"), t.tt.ResumeBack()); err != nil {
			return nil, err
		}
		stops++
	}
	if stops != pauses {
		return nil, m.fail("ResumeBack stopped on the watch %d times, forward run paused %d times", stops, pauses)
	}
	return got, nil
}

// checkLastChange checks LastChange at step i: it names a step j <= i whose
// value equals the value at i, and the value at j-1 differs.
func (w *recordSeek) checkLastChange(m *meter, L string, t *timeTravel, i int, st *easytracker.State) error {
	c := m.begin(L + ".last_change")
	vc, err := t.rw.LastChange("::swaps")
	if err := m.drive(c, err); err != nil {
		return err
	}
	at, _ := intOf(global(st, "swaps"))
	if val, ok := intOf(vc.Val); vc.Step > i || !ok || val != at {
		return m.fail("LastChange at %d = step %d value %v; value at %d is %d", i, vc.Step, vc.Val, i, at)
	}
	if vc.Step == 0 {
		return nil
	}
	prev, err := seekState(m, L, t, vc.Step-1)
	if err != nil {
		return err
	}
	if before, ok := intOf(global(prev, "swaps")); ok && before == at {
		return m.fail("LastChange at %d = step %d, but step %d already holds %d", i, vc.Step, vc.Step-1, at)
	}
	return nil
}

// heapLive records the largest program and returns the live heap with the
// recorded session open.
func (w *recordSeek) heapLive() (heap uint64, err error) {
	m := newMeter("heap", 0, nil)
	tr, err := easytracker.New("minipy")
	if err != nil {
		return 0, err
	}
	defer func() {
		if terr := terminate(m, liveTT, tr); err == nil {
			err = terr
		}
	}()
	if _, err := w.record(m, tr, w.progs[len(w.progs)-1], time.Now()); err != nil {
		return 0, err
	}
	return liveHeap(), nil
}
