package main

import (
	"fmt"
	"strings"
	"sync/atomic"

	"easytracker"
	"easytracker/internal/dbg"
	"easytracker/internal/gdbtracker"
	"easytracker/internal/isa"
	"easytracker/internal/mi"
	"easytracker/internal/minic"
	"easytracker/internal/vm"
)

// cmiStep is the c-mi-step workload: seeded MiniC programs driven through
// the MiniGDB tracker over the in-process MI pipe with heap tracking.
type cmiStep struct {
	step, watch, rec *program
	// nextLines is the number of NextLine stops from entry to exit when
	// the debugger drives the recursion program directly.
	nextLines int
	// mi counts the bytes crossing the MI pipe.
	mi miCounter

	progSpans
}

// Session kinds of one round.
const (
	cStepRun  = "step"  // Step to exit, State at every pause
	cWatchRun = "watch" // Resume to every swap-counter write
	cBreakRun = "break" // Resume to every max-depth function breakpoint
	cNextRun  = "next"  // Next to exit, State at every pause
)

// dbgLines counts the line stops from entry to exit when the debugger
// drives prog directly, stepping into calls or over them.
func dbgLines(prog *isa.Program, next bool) (int, error) {
	d, err := dbg.New(prog, vm.Config{})
	if err != nil {
		return 0, err
	}
	if _, err := d.Start(); err != nil {
		return 0, err
	}
	n := 0
	for {
		if _, done := d.Exited(); done {
			return n, nil
		}
		if next {
			_, err = d.NextLine(nil)
		} else {
			_, err = d.StepLine(nil)
		}
		if err != nil {
			return 0, err
		}
		n++
	}
}

func (w *cmiStep) setup(seed int64) error {
	w.step, w.watch, w.rec = cPrograms(seed)
	for _, p := range []*program{w.step, w.watch, w.rec} {
		prog, err := minic.Compile(p.path, p.src)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		n, err := dbgLines(prog, false)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		p.lines = int64(n)
		if p == w.rec {
			if w.nextLines, err = dbgLines(prog, true); err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
		}
	}
	m := newMeter("warm-up", 0, nil)
	if err := w.session(m, cStepRun, w.step); err != nil {
		return err
	}
	return w.session(m, cBreakRun, w.rec)
}

func (w *cmiStep) close() {}

func (w *cmiStep) round(m *meter) error {
	for _, s := range []struct {
		kind string
		p    *program
	}{{cStepRun, w.step}, {cWatchRun, w.watch}, {cBreakRun, w.rec}, {cNextRun, w.rec}} {
		m.settle()
		if err := w.session(m, s.kind, s.p); err != nil {
			return err
		}
		m.lines += s.p.lines
	}
	return nil
}

// open boots a MiniGDB session on p and pauses it at entry.
func (w *cmiStep) open(m *meter, p *program, out *strings.Builder) (*gdbtracker.Tracker, error) {
	const L = "gdbtracker"
	tr := gdbtracker.New()
	tr.SetConnWrapper(w.mi.wrap)
	c := m.begin(L + ".load")
	if _, err := m.end(c, tr.LoadProgram(p.path, w.loadOpts(p.src, out, easytracker.WithHeapTracking())...)); err != nil {
		return nil, err
	}
	c = m.begin(L + ".start")
	if _, err := m.end(c, tr.Start()); err != nil {
		_ = tr.Terminate() // already failing
		return nil, err
	}
	return tr, nil
}

func (w *cmiStep) session(m *meter, kind string, p *program) (err error) {
	const L = "gdbtracker"
	t0 := m.openSession(kind + "-" + p.name)
	defer m.closeSession()
	var out strings.Builder
	tr, err := w.open(m, p, &out)
	if err != nil {
		return err
	}
	m.started(t0)
	defer func() {
		w.collect(tr)
		if terr := terminate(m, L, tr); err == nil {
			err = terr
		}
	}()
	switch kind {
	case cStepRun:
		err = stepLoop(m, L+".step", tr, tr.Step, int(p.lines))
	case cNextRun:
		err = stepLoop(m, L+".next", tr, tr.Next, w.nextLines)
	default:
		c := m.begin(L + ".arm")
		if _, err := m.end(c, arm(tr, p, false)); err != nil {
			return err
		}
		chk := &pauseCheck{m: m, p: p, firstSwap: 1}
		if kind == cWatchRun {
			chk.heap = tr.HeapBlocks
		}
		err = resumeLoop(m, L, tr, chk, 0)
	}
	if err != nil {
		return err
	}
	if out.String() != p.out {
		return m.fail("stdout %q, model %q", out.String(), p.out)
	}
	return nil
}

// stepLoop calls step until the inferior exits, fetching State at every
// pause; the number of calls must equal the debugger's own line count.
func stepLoop(m *meter, name string, tr *gdbtracker.Tracker, step func() error, want int) error {
	n := 0
	for {
		c := m.begin(name)
		if err := m.drive(c, step()); err != nil {
			return err
		}
		n++
		if code, done := tr.ExitCode(); done {
			if code != 0 {
				return m.fail("exit code %d", code)
			}
			break
		}
		if n > want {
			return m.fail("still running after %d calls; the debugger stops %d times", n, want)
		}
		c = m.begin("gdbtracker.state")
		_, err := tr.State()
		if err := m.state(c, err); err != nil {
			return err
		}
	}
	if n != want {
		return m.fail("%d calls to exit; the debugger stops %d times", n, want)
	}
	return nil
}

// heapLive opens a watched sort, runs it to the middle of its swaps and
// returns the live heap with that session open.
func (w *cmiStep) heapLive() (heap uint64, err error) {
	m := newMeter("heap", 0, nil)
	p := w.watch
	var out strings.Builder
	tr, err := w.open(m, p, &out)
	if err != nil {
		return 0, err
	}
	defer func() {
		if terr := terminate(m, "gdbtracker", tr); err == nil {
			err = terr
		}
	}()
	if err := arm(tr, p, false); err != nil {
		return 0, err
	}
	if err := resumeLoop(m, "gdbtracker", tr, &pauseCheck{m: m, p: p, firstSwap: 1}, p.swaps()/2); err != nil {
		return 0, err
	}
	return liveHeap(), nil
}

// miCounter counts the bytes sent and received over MI connections.
type miCounter struct{ sent, recv atomic.Int64 }

func (c *miCounter) wrap(conn mi.Conn) mi.Conn { return &countingMI{Conn: conn, c: c} }

type countingMI struct {
	mi.Conn
	c *miCounter
}

func (m *countingMI) Send(line string) error {
	m.c.sent.Add(int64(len(line) + 1))
	return m.Conn.Send(line)
}

func (m *countingMI) Recv() (string, error) {
	line, err := m.Conn.Recv()
	m.c.recv.Add(int64(len(line) + 1))
	return line, err
}
