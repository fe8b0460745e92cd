package main

import (
	"easytracker"
)

// pauseCheck validates every pause of one probe session against the
// program's model.
type pauseCheck struct {
	m *meter
	p *program
	// firstSwap is the swap count at the first watch pause: 0 for MiniPy,
	// whose watch also reports the counter's definition, 1 for MiniC,
	// whose global is initialized before the program runs.
	firstSwap int
	// pairs is true when function probes pause at call and return
	// (TrackFunction) and false for entry-only function breakpoints.
	pairs bool
	// heap, when set, returns the live heap block map at a pause.
	heap func() (map[uint64]uint64, error)

	k     int   // pauses seen
	calls int   // admitted calls seen
	open  []int // n of calls not yet returned
}

// intOf reads an integer through any chain of references.
func intOf(v *easytracker.Value) (int64, bool) {
	for v != nil && v.Kind == easytracker.Ref {
		v = v.Deref()
	}
	if v == nil {
		return 0, false
	}
	return v.Int()
}

// intsOf reads a list of integers through any chain of references.
func intsOf(v *easytracker.Value) ([]int, bool) {
	for v != nil && v.Kind == easytracker.Ref {
		v = v.Deref()
	}
	if v == nil || v.Kind != easytracker.List {
		return nil, false
	}
	out := make([]int, len(v.Elems()))
	for i, e := range v.Elems() {
		n, ok := intOf(e)
		if !ok {
			return nil, false
		}
		out[i] = int(n)
	}
	return out, true
}

func global(st *easytracker.State, name string) *easytracker.Value {
	for _, g := range st.Globals {
		if g.Name == name {
			return g.Value
		}
	}
	return nil
}

func local(st *easytracker.State, name string) *easytracker.Value {
	if st.Frame == nil {
		return nil
	}
	if v := st.Frame.Lookup(name); v != nil {
		return v.Value
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pause checks the k-th pause.
func (c *pauseCheck) pause(reason easytracker.PauseReason, st *easytracker.State) error {
	m, p := c.m, c.p
	defer func() { c.k++ }()
	switch p.shape {
	case shapeSort:
		want := c.firstSwap + c.k
		if reason.Type != easytracker.PauseWatch {
			return m.fail("pause %d is %v, want a watch pause", c.k, reason)
		}
		if got, ok := intOf(global(st, "swaps")); !ok || int(got) != want {
			return m.fail("watch pause %d: swaps = %d, want %d", c.k, got, want)
		}
		list := global(st, "data") // MiniPy: the sorted global
		if list == nil {
			list = local(st, "a") // MiniC: isort's array parameter
		}
		if want == 0 && list == nil {
			return nil // MiniPy's definition pause precedes data
		}
		got, ok := intsOf(list)
		if !ok || !equalInts(got, p.snaps[want]) {
			return m.fail("watch pause %d: list %v, want %v", c.k, got, p.snaps[want])
		}
		if c.heap != nil {
			blocks, err := c.heap()
			if err != nil {
				return m.fail("heap blocks: %v", err)
			}
			if !hasBlock(blocks, uint64(8*len(p.snaps[0]))) {
				return m.fail("watch pause %d: heap map %v lacks the %d-element array", c.k, blocks, len(p.snaps[0]))
			}
		}
	case shapeLoop:
		if c.k >= len(p.hits) {
			return m.fail("extra pause %d at %v; model has %d hits", c.k, reason, len(p.hits))
		}
		if reason.Type != easytracker.PauseBreakpoint {
			return m.fail("pause %d is %v, want a breakpoint", c.k, reason)
		}
		if got, ok := intOf(global(st, "i")); !ok || int(got) != p.hits[c.k] {
			return m.fail("conditional break %d at i = %d, want %d", c.k, got, p.hits[c.k])
		}
	case shapeRec:
		if st.Frame == nil || st.Frame.Name != "rsum" {
			return m.fail("pause %d (%v) is not in rsum", c.k, reason)
		}
		n, ok := intOf(local(st, "n"))
		if !ok {
			return m.fail("pause %d: rsum has no n", c.k)
		}
		isReturn := c.pairs && reason.Type == easytracker.PauseReturn
		switch {
		case isReturn:
			if len(c.open) == 0 || c.open[len(c.open)-1] != int(n) {
				return m.fail("return pause %d for n = %d does not match open calls %v", c.k, n, c.open)
			}
			c.open = c.open[:len(c.open)-1]
		case c.pairs && reason.Type != easytracker.PauseCall,
			!c.pairs && reason.Type != easytracker.PauseBreakpoint:
			return m.fail("pause %d is %v", c.k, reason)
		default:
			if c.calls >= len(p.args) || p.args[c.calls] != int(n) {
				return m.fail("call %d has n = %d; model calls %v", c.calls, n, p.args)
			}
			c.calls++
			if c.pairs {
				c.open = append(c.open, int(n))
			}
		}
	}
	return nil
}

func hasBlock(blocks map[uint64]uint64, size uint64) bool {
	for _, s := range blocks {
		if s == size {
			return true
		}
	}
	return false
}

// done checks the pause count once the inferior exited.
func (c *pauseCheck) done() error {
	m, p := c.m, c.p
	var want int
	switch p.shape {
	case shapeSort:
		want = p.swaps() + 1 - c.firstSwap
	case shapeLoop:
		want = len(p.hits)
	case shapeRec:
		if len(c.open) != 0 {
			return m.fail("calls %v never returned", c.open)
		}
		// The max-depth admission is one operation of its own. MiniPy's
		// TrackFunction pauses on every call whatever the max depth, on
		// every seed; that counts as a failed operation, not a wrong one.
		m.attempted++
		if c.pairs && c.calls == len(p.args) && c.calls != p.admitted {
			m.failed++
		} else if c.calls != p.admitted {
			return m.fail("%d calls paused; max depth %d admits %d", c.calls, p.maxDepth, p.admitted)
		}
		want = c.calls
		if c.pairs {
			want *= 2
		}
	}
	if c.k != want {
		return m.fail("%d pauses, model has %d", c.k, want)
	}
	return nil
}
