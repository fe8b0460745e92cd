package main

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"easytracker"
	"easytracker/internal/minipy"
	"easytracker/internal/obs"
	"easytracker/internal/remote"
)

// pyProbe is the py-probe-local and py-probe-remote workload: the same
// seeded MiniPy programs and call sequence, driven in-process or over a
// loopback-TCP session to an in-process server.
type pyProbe struct {
	remote bool
	progs  []*program

	// Remote only: the server, its listener and the Serve goroutine. The
	// server always records spans into a ring of serverSpans (0 picks its
	// default); traced runs enlarge it to keep every session's spans.
	srv         *easytracker.Server
	ln          *countingListener
	serve       sync.WaitGroup
	serverSpans int

	progSpans
}

func (w *pyProbe) layer() string {
	if w.remote {
		return "remote"
	}
	return "pytracker"
}

// countLines runs a MiniPy program natively under a line-counting hook and
// checks its stdout against the model.
func countLines(p *program) error {
	mod, err := minipy.Parse(p.path, p.src)
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	in := minipy.NewInterp(mod)
	var out strings.Builder
	in.SetStdout(&out)
	var lines int64
	in.SetTrace(func(_ *minipy.RTFrame, ev minipy.Event, _ *minipy.Object) error {
		if ev == minipy.EventLine {
			lines++
		}
		return nil
	})
	if code, err := in.Run(); err != nil || code != 0 {
		return fmt.Errorf("%s: native run exited %d: %v", p.name, code, err)
	}
	if out.String() != p.out {
		return fmt.Errorf("%s: native stdout %q, model %q", p.name, out.String(), p.out)
	}
	p.lines = lines
	return nil
}

func (w *pyProbe) setup(seed int64) error {
	w.progs = pyProbePrograms(seed)
	for _, p := range w.progs {
		if err := countLines(p); err != nil {
			return err
		}
	}
	if w.remote {
		if err := w.startServer(); err != nil {
			return err
		}
	}
	return warmUp(w.progs, w.session)
}

// warmUp runs one untimed session per program shape, on the smallest
// program of each.
func warmUp(progs []*program, session func(*meter, *program) error) error {
	seen := map[string]bool{}
	for _, p := range progs {
		if seen[p.shape] {
			continue
		}
		seen[p.shape] = true
		if err := session(newMeter("warm-up", 0, nil), p); err != nil {
			return err
		}
	}
	return nil
}

func (w *pyProbe) startServer() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	w.ln = &countingListener{Listener: ln}
	w.srv = remote.NewServer(remote.WithSpanCapacity(w.serverSpans))
	w.serve.Add(1)
	go func() {
		defer w.serve.Done()
		_ = w.srv.Serve(w.ln) // returns nil once Close stops it
	}()
	return nil
}

func (w *pyProbe) close() {
	if w.srv != nil {
		_ = w.srv.Close() // nothing is left to flush
		w.serve.Wait()
	}
}

func (w *pyProbe) round(m *meter) error {
	for _, p := range w.progs {
		m.settle()
		if err := w.session(m, p); err != nil {
			return err
		}
		m.lines += p.lines
	}
	return nil
}

// open starts a session: a local tracker or a connection to the server.
func (w *pyProbe) open() (easytracker.Tracker, error) {
	if w.remote {
		return easytracker.Connect(w.ln.Addr().String(), "minipy")
	}
	return easytracker.New("minipy")
}

// progSpans switches on the program's own span tracing in a workload's
// sessions, for the traced run's cross-check, and collects those spans.
type progSpans struct {
	on    bool
	spans []obs.SpanRecord
}

func (s *progSpans) traceSpans() *progSpans { return s }

// loadOpts are the LoadProgram options of every session.
func (s *progSpans) loadOpts(src string, out *strings.Builder, more ...easytracker.LoadOption) []easytracker.LoadOption {
	opts := append([]easytracker.LoadOption{easytracker.WithSource(src), easytracker.WithStdout(out)}, more...)
	if s.on {
		opts = append(opts, easytracker.WithObservability(easytracker.WithSpanTracing(1<<15)))
	}
	return opts
}

// collect keeps the spans a session recorded.
func (s *progSpans) collect(tr easytracker.Tracker) {
	if sp, ok := easytracker.Spans(tr); ok && s.on {
		s.spans = append(s.spans, sp...)
	}
}

// terminate ends a session.
func terminate(m *meter, layer string, tr easytracker.Tracker) error {
	c := m.begin(layer + ".terminate")
	err := tr.Terminate()
	if rt, ok := tr.(*easytracker.RemoteTracker); ok {
		if cerr := rt.Close(); err == nil {
			err = cerr
		}
	}
	_, err = m.end(c, err)
	return err
}

// arm installs the program's probe.
func arm(tr easytracker.Tracker, p *program, trackCalls bool) error {
	switch p.shape {
	case shapeSort:
		return tr.Watch("::swaps")
	case shapeLoop:
		return tr.BreakBeforeLine("", p.breakLine, easytracker.When(p.cond))
	case shapeRec:
		if trackCalls {
			return tr.TrackFunction("rsum", easytracker.WithMaxDepth(p.maxDepth))
		}
		return tr.BreakBeforeFunc("rsum", easytracker.WithMaxDepth(p.maxDepth))
	}
	return fmt.Errorf("unknown shape %q", p.shape)
}

// session drives one program: open, load, start, arm its probe, then
// Resume to every pause with one State each, and check it all.
func (w *pyProbe) session(m *meter, p *program) (err error) {
	L := w.layer()
	t0 := m.openSession(p.name)
	defer m.closeSession()
	c := m.begin(L + ".open")
	tr, err := w.open()
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
	if _, err := m.end(c, tr.LoadProgram(p.path, w.loadOpts(p.src, &out)...)); err != nil {
		return err
	}
	c = m.begin(L + ".start")
	if _, err := m.end(c, tr.Start()); err != nil {
		return err
	}
	m.started(t0)
	c = m.begin(L + ".arm")
	if _, err := m.end(c, arm(tr, p, true)); err != nil {
		return err
	}
	chk := &pauseCheck{m: m, p: p, pairs: true}
	if err := resumeLoop(m, L, tr, chk, 0); err != nil {
		return err
	}
	if out.String() != p.out {
		return m.fail("stdout %q, model %q", out.String(), p.out)
	}
	return nil
}

// resumeLoop resumes to every pause, fetching State and checking each,
// until the inferior exits, or for at most maxPauses pauses when positive.
func resumeLoop(m *meter, L string, tr easytracker.Tracker, chk *pauseCheck, maxPauses int) error {
	sp, ok := easytracker.As[easytracker.StateProvider](tr)
	if !ok {
		return m.fail("tracker has no State")
	}
	for n := 0; maxPauses <= 0 || n < maxPauses; n++ {
		c := m.begin(L + ".resume")
		if err := m.drive(c, tr.Resume()); err != nil {
			return err
		}
		if code, done := tr.ExitCode(); done {
			if code != 0 {
				return m.fail("exit code %d", code)
			}
			return chk.done()
		}
		c = m.begin(L + ".state")
		st, err := sp.State()
		if err := m.state(c, err); err != nil {
			return err
		}
		if err := chk.pause(tr.PauseReason(), st); err != nil {
			return err
		}
	}
	return nil
}

// heapLive opens a session of the largest sort, runs it to the middle of
// its swaps and returns the live heap with that session open.
func (w *pyProbe) heapLive() (heap uint64, err error) {
	p := w.progs[len(pyProbeSorts)-1]
	m := newMeter("heap", 0, nil)
	tr, err := w.open()
	if err != nil {
		return 0, err
	}
	defer func() {
		if terr := terminate(m, w.layer(), tr); err == nil {
			err = terr
		}
	}()
	var out strings.Builder
	if err := tr.LoadProgram(p.path, w.loadOpts(p.src, &out)...); err != nil {
		return 0, err
	}
	if err := tr.Start(); err != nil {
		return 0, err
	}
	if err := arm(tr, p, true); err != nil {
		return 0, err
	}
	if err := resumeLoop(m, w.layer(), tr, &pauseCheck{m: m, p: p}, p.swaps()/2); err != nil {
		return 0, err
	}
	return liveHeap(), nil
}

// countingListener counts the bytes the server reads and writes on every
// connection it accepts.
type countingListener struct {
	net.Listener
	in, out atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.l.out.Add(int64(n))
	return n, err
}
