package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Seeded program generators and the Go reference models the benchmark
// checks the trackers against. A seed picks list contents, the loop's
// multiplier and the recursion's data; lengths, inversion counts, hit counts
// and depths are fixed, so every seed does the same amount of work and runs
// differ only in values.

// Program shapes.
const (
	shapeSort = "sort" // insertion sort with a watched global swap counter
	shapeLoop = "loop" // long loop under a conditional line breakpoint
	shapeRec  = "rec"  // recursive sum under a max-depth probe
)

// Loop-shape constants: v = (i*m) % loopP walks a permutation of [0, loopP)
// every loopP iterations, so `v < loopH` holds on exactly loopH iterations
// per period, at positions the seed's multiplier m decides.
const (
	loopP = 1009
	loopN = 2 * loopP
	loopH = 4
)

// program is one generated inferior plus everything the checks need.
type program struct {
	name  string // "sort-24", "loop-2018", "rec-40"
	shape string
	path  string // display file name; its extension picks the language
	src   string
	out   string // expected stdout
	lines int64  // source lines the inferior executes, counted at set-up

	// sort: the list after k swaps, k = 0..swaps.
	snaps [][]int
	// loop: the conditional breakpoint and the iterations it pauses on.
	breakLine int
	cond      string
	hits      []int
	// rec: the max depth, the n argument of every call in call order,
	// and how many of those calls the max depth admits.
	maxDepth int
	args     []int
	admitted int
}

func (p *program) swaps() int { return len(p.snaps) - 1 }

// exactInversions returns a seeded arrangement of n distinct values with
// exactly n(n-1)/4 inversions, so insertion sort makes the same number of
// swaps for every seed. Where that total allows (n >= 4), every element
// after the first is also out of place, so every pass of the inner loop
// swaps at least once: the gaps between consecutive swaps, which set the
// cost of each Resume to the next swap and each ResumeBack to the previous
// one, then have the same lengths for every seed. It draws a Lehmer code c
// (c[i] <= i counts the earlier elements greater than element i), nudges
// it to the target sum, and decodes it.
func exactInversions(r *rand.Rand, n int) []int {
	target := n * (n - 1) / 4
	lo := 0
	if target >= n-1 {
		lo = 1
	}
	c := make([]int, n)
	sum := 0
	for i := 1; i < n; i++ {
		c[i] = lo + r.Intn(i+1-lo)
		sum += c[i]
	}
	for sum != target {
		i := 1 + r.Intn(n-1)
		switch {
		case sum < target && c[i] < i:
			c[i]++
			sum++
		case sum > target && c[i] > lo:
			c[i]--
			sum--
		}
	}
	// ord lists positions in increasing value order; inserting position i
	// at rank i-c[i] puts exactly c[i] earlier positions above it.
	ord := make([]int, 0, n)
	for i := 0; i < n; i++ {
		k := i - c[i]
		ord = append(ord, 0)
		copy(ord[k+1:], ord[k:])
		ord[k] = i
	}
	vals := r.Perm(10 * n)[:n]
	sort.Ints(vals)
	out := make([]int, n)
	for rank, pos := range ord {
		out[pos] = vals[rank]
	}
	return out
}

// sortModel runs insertion sort and returns the list after each swap
// (snaps[0] is the input).
func sortModel(xs []int) [][]int {
	a := append([]int(nil), xs...)
	snaps := [][]int{append([]int(nil), a...)}
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
			snaps = append(snaps, append([]int(nil), a...))
		}
	}
	return snaps
}

// loopModel returns the iterations i in [0, loopN) where (i*m) % loopP <
// loopH, and the loop's printed total of (i*m) % loopP.
func loopModel(m int) (hits []int, total int) {
	for i := 0; i < loopN; i++ {
		v := i * m % loopP
		if v < loopH {
			hits = append(hits, i)
		}
		total += v
	}
	return hits, total
}

// recModel returns rsum(a, len(a)), the n argument of every call in call
// order, and how many calls run at a frame depth below maxDepth.
// rsum(a, len(a)) runs at depth 1 (the entry frame is depth 0) and each
// recursive call one deeper, so the first maxDepth-1 calls are admitted.
func recModel(a []int, maxDepth int) (sum int, args []int, admitted int) {
	for _, x := range a {
		sum += x
	}
	for n := len(a); n >= 0; n-- {
		args = append(args, n)
	}
	return sum, args, min(maxDepth-1, len(args))
}

func pyList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

const pySortSrc = `swaps = 0

def insertion_sort(a):
    global swaps
    i = 1
    while i < len(a):
        j = i
        while j > 0 and a[j - 1] > a[j]:
            a[j - 1], a[j] = a[j], a[j - 1]
            swaps = swaps + 1
            j = j - 1
        i = i + 1

data = %s
insertion_sort(data)
print(swaps)
print(data)
`

func pySort(r *rand.Rand, n int) *program {
	snaps := sortModel(exactInversions(r, n))
	p := &program{
		name: fmt.Sprintf("sort-%d", n), shape: shapeSort, path: "sort.py",
		src:   fmt.Sprintf(pySortSrc, pyList(snaps[0])),
		snaps: snaps,
	}
	p.out = fmt.Sprintf("%d\n%s\n", p.swaps(), pyList(snaps[len(snaps)-1]))
	return p
}

const pyLoopSrc = `total = 0
i = 0
while i < %d:
    v = (i * %d) %% %d
    total = total + v
    i = i + 1
print(total)
`

func pyLoop(r *rand.Rand) *program {
	m := 2 + r.Intn(loopP-2)
	hits, total := loopModel(m)
	return &program{
		name: fmt.Sprintf("loop-%d", loopN), shape: shapeLoop, path: "loop.py",
		src:       fmt.Sprintf(pyLoopSrc, loopN, m, loopP),
		out:       fmt.Sprintf("%d\n", total),
		breakLine: 5, cond: fmt.Sprintf("v < %d", loopH), hits: hits,
	}
}

const pyRecSrc = `def rsum(a, n):
    if n == 0:
        return 0
    return a[n - 1] + rsum(a, n - 1)

data = %s
total = rsum(data, len(data))
print(total)
`

func seededInts(r *rand.Rand, n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = r.Intn(100)
	}
	return a
}

func pyRec(r *rand.Rand, n, maxDepth int) *program {
	a := seededInts(r, n)
	sum, args, admitted := recModel(a, maxDepth)
	return &program{
		name: fmt.Sprintf("rec-%d", n), shape: shapeRec, path: "rec.py",
		src: fmt.Sprintf(pyRecSrc, pyList(a)), out: fmt.Sprintf("%d\n", sum),
		maxDepth: maxDepth, args: args, admitted: admitted,
	}
}

// cArrayInit writes the statements filling the malloc'd array a.
func cArrayInit(xs []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "    int* a = (int*)malloc(%d * sizeof(int));\n", len(xs))
	for i, x := range xs {
		fmt.Fprintf(&b, "    a[%d] = %d;\n", i, x)
	}
	return b.String()
}

const cSortSrc = `int swaps;
void isort(int* a, int n) {
    for (int i = 1; i < n; i++) {
        int j = i;
        while (j > 0 && a[j - 1] > a[j]) {
            int t = a[j - 1];
            a[j - 1] = a[j];
            a[j] = t;
            swaps = swaps + 1;
            j = j - 1;
        }
    }
}
int main() {
%s    isort(a, %d);
    printf("%%d\n", swaps);
    return 0;
}
`

func cSort(r *rand.Rand, n int) *program {
	snaps := sortModel(exactInversions(r, n))
	p := &program{
		name: fmt.Sprintf("sort-%d", n), shape: shapeSort, path: "sort.c",
		src:   fmt.Sprintf(cSortSrc, cArrayInit(snaps[0]), n),
		snaps: snaps,
	}
	p.out = fmt.Sprintf("%d\n", p.swaps())
	return p
}

const cRecSrc = `int rsum(int* a, int n) {
    if (n == 0) {
        return 0;
    }
    return a[n - 1] + rsum(a, n - 1);
}
int main() {
%s    int r = rsum(a, %d);
    printf("%%d\n", r);
    return 0;
}
`

func cRec(r *rand.Rand, n, maxDepth int) *program {
	a := seededInts(r, n)
	sum, args, admitted := recModel(a, maxDepth)
	return &program{
		name: fmt.Sprintf("rec-%d", n), shape: shapeRec, path: "rec.c",
		src: fmt.Sprintf(cRecSrc, cArrayInit(a), n), out: fmt.Sprintf("%d\n", sum),
		maxDepth: maxDepth, args: args, admitted: admitted,
	}
}

// Program sets per workload. Sizes are fixed; the seed picks values.
var (
	pyProbeSorts = []int{6, 24, 64}
	pyProbeRecs  = []int{12, 40}
	recordSorts  = []int{24, 40, 64}
)

const (
	pyRecDepth = 8
	cStepSort  = 8
	cWatchSort = 24
	cRecLen    = 16
	cRecDepth  = 6
)

func pyProbePrograms(seed int64) []*program {
	r := rand.New(rand.NewSource(seed))
	var ps []*program
	for _, n := range pyProbeSorts {
		ps = append(ps, pySort(r, n))
	}
	ps = append(ps, pyLoop(r))
	for _, n := range pyProbeRecs {
		ps = append(ps, pyRec(r, n, pyRecDepth))
	}
	return ps
}

func recordPrograms(seed int64) []*program {
	r := rand.New(rand.NewSource(seed))
	var ps []*program
	for _, n := range recordSorts {
		ps = append(ps, pySort(r, n))
	}
	return ps
}

// cPrograms returns the step-run sort, the watched sort and the recursion.
func cPrograms(seed int64) (step, watch, rec *program) {
	r := rand.New(rand.NewSource(seed))
	return cSort(r, cStepSort), cSort(r, cWatchSort), cRec(r, cRecLen, cRecDepth)
}
