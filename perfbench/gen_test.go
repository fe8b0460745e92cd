package main

import (
	"math/rand"
	"testing"
)

func TestSortModelHandWorked(t *testing.T) {
	snaps := sortModel([]int{3, 1, 2})
	if got := len(snaps) - 1; got != 2 {
		t.Fatalf("insertion sort of [3 1 2] made %d swaps, want 2", got)
	}
	want := [][]int{{3, 1, 2}, {1, 3, 2}, {1, 2, 3}}
	for k := range want {
		if !equalInts(snaps[k], want[k]) {
			t.Errorf("after %d swaps: %v, want %v", k, snaps[k], want[k])
		}
	}
}

func TestRecModelHandWorked(t *testing.T) {
	a := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	sum, args, admitted := recModel(a, 4)
	if sum != 55 {
		t.Errorf("sum(10) = %d, want 55", sum)
	}
	// rsum(a, 10) .. rsum(a, 0): eleven calls at depths 1..11; max depth 4
	// admits depths 1, 2 and 3.
	if len(args) != 11 || args[0] != 10 || args[10] != 0 {
		t.Errorf("call arguments %v, want 10 down to 0", args)
	}
	if admitted != 3 {
		t.Errorf("max depth 4 admits %d calls, want 3", admitted)
	}
}

func TestLoopModelFixedSeed(t *testing.T) {
	// m = 3: (i*3) % 1009 < 4 at i = 0, 1 (v = 3), 337 (v = 2), 673 (v = 1),
	// and again one period later.
	hits, _ := loopModel(3)
	want := []int{0, 1, 337, 673, 1009, 1010, 1346, 1682}
	if !equalInts(hits, want) {
		t.Errorf("hits for m = 3: %v, want %v", hits, want)
	}
	// A fixed seed gives fixed iterations, and every seed gives loopH
	// hits per period.
	a, b := pyLoop(rand.New(rand.NewSource(7))), pyLoop(rand.New(rand.NewSource(7)))
	if !equalInts(a.hits, b.hits) || a.src != b.src {
		t.Errorf("seed 7 gave %v then %v", a.hits, b.hits)
	}
	for seed := int64(0); seed < 50; seed++ {
		if p := pyLoop(rand.New(rand.NewSource(seed))); len(p.hits) != loopH*loopN/loopP {
			t.Errorf("seed %d: %d hits, want %d", seed, len(p.hits), loopH*loopN/loopP)
		}
	}
}

func TestExactInversions(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, n := range []int{1, 2, 3, 8, 24, 64} {
			xs := exactInversions(rand.New(rand.NewSource(seed)), n)
			seen := map[int]bool{}
			inv := 0
			for i := range xs {
				if seen[xs[i]] {
					t.Fatalf("seed %d n %d: repeated value %d", seed, n, xs[i])
				}
				seen[xs[i]] = true
				above := 0
				for j := 0; j < i; j++ {
					if xs[j] > xs[i] {
						above++
					}
				}
				if n >= 4 && i > 0 && above == 0 {
					t.Errorf("seed %d n %d: element %d is in place, so its pass makes no swap", seed, n, i)
				}
				inv += above
			}
			if inv != n*(n-1)/4 {
				t.Errorf("seed %d n %d: %d inversions, want %d", seed, n, inv, n*(n-1)/4)
			}
			if got := len(sortModel(xs)) - 1; got != inv {
				t.Errorf("seed %d n %d: sort model made %d swaps for %d inversions", seed, n, got, inv)
			}
		}
	}
}

// TestGeneratedProgramsMatchModels runs every generated MiniPy program
// natively and compares its output with the model.
func TestGeneratedProgramsMatchModels(t *testing.T) {
	for _, p := range append(pyProbePrograms(3), recordPrograms(3)...) {
		if err := countLines(p); err != nil {
			t.Error(err)
		}
	}
}

// TestWorkloadsShort runs every workload end to end for about a second,
// untraced and traced, with every check on. Skipped with -short.
func TestWorkloadsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, name := range workloads {
		res, err := run(name, 11, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Metrics) != 8 || res.Attempted == 0 {
			t.Errorf("%s: %d metrics, %d attempted", name, len(res.Metrics), res.Attempted)
		}
	}
	res, err := run("py-probe-local", 11, 0.2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != 34 {
		t.Errorf("traced run printed %d per-layer metrics, want 34", len(res.Metrics))
	}
}
