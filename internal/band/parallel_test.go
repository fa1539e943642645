package band

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
)

// The pipelined reduction promises BITWISE identity with the sequential
// reference — the graph orders every pair of conflicting chase steps exactly
// as the sweep-major loop does — so these tests compare float64 bits, not
// tolerances, across ragged shapes, bandwidths, worker counts and window
// widths (including windows far smaller than the default, which force deep
// caravan pipelines).

func diffBidiagonal(t *testing.T, label string, want, got *Matrix) {
	t.Helper()
	if got.N != want.N || got.KU != want.KU {
		t.Fatalf("%s: shape (%d,%d) != (%d,%d)", label, got.N, got.KU, want.N, want.KU)
	}
	dw, ew := want.Bidiagonal()
	dg, eg := got.Bidiagonal()
	for i := range dw {
		if dw[i] != dg[i] {
			t.Fatalf("%s: d[%d] differs bitwise: %v != %v", label, i, dg[i], dw[i])
		}
	}
	for i := range ew {
		if ew[i] != eg[i] {
			t.Fatalf("%s: e[%d] differs bitwise: %v != %v", label, i, eg[i], ew[i])
		}
	}
}

func TestReduceParallelMatchesSequential(t *testing.T) {
	cases := []struct{ n, ku int }{
		{1, 0}, {2, 1}, {3, 2}, {5, 3}, {9, 8},
		{17, 4}, {33, 7}, {40, 39}, {64, 9}, {65, 16},
		{100, 3}, {127, 31}, {96, 2},
	}
	for _, tc := range cases {
		want := Reduce(randomBand(int64(100+tc.n), tc.n, tc.ku))
		for _, workers := range []int{1, 2, 3, 8} {
			for _, window := range []int{0, 7, 16, 64} {
				b := randomBand(int64(100+tc.n), tc.n, tc.ku)
				got, err := ReduceParallel(b, workers, window)
				if err != nil {
					t.Fatal(err)
				}
				diffBidiagonal(t,
					fmt.Sprintf("n=%d ku=%d workers=%d window=%d", tc.n, tc.ku, workers, window),
					want, got)
			}
		}
	}
}

func TestReduceParallelEmpty(t *testing.T) {
	r, err := ReduceParallel(New(0, 0), 4, 0)
	if err != nil || r.N != 0 {
		t.Fatalf("empty input: %v %v", r, err)
	}
}

// Property: random ragged (n, ku, window, workers) keep bitwise parity.
func TestReduceParallelParityFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(120)
		ku := 1 + rng.Intn(n-1)
		window := []int{0, 16, 33, 128}[rng.Intn(4)]
		workers := 1 + rng.Intn(8)
		b := randomBand(seed, n, ku)
		want := Reduce(b)
		got, err := ReduceParallel(b, workers, window)
		if err != nil {
			return false
		}
		dw, ew := want.Bidiagonal()
		dg, eg := got.Bidiagonal()
		for i := range dw {
			if dw[i] != dg[i] {
				return false
			}
		}
		for i := range ew {
			if ew[i] != eg[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The graph must be acyclic (submission order is a topological order) and
// its tasks must cover exactly the modeled work.
func TestReduceGraphShape(t *testing.T) {
	b := randomBand(5, 200, 12)
	g := sched.NewGraph()
	finish := BuildReduceGraph(g, b, 48)
	if err := g.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	sum := g.Summary()
	if sum.Tasks == 0 || sum.TotalFlops <= 0 {
		t.Fatalf("degenerate graph: %+v", sum)
	}
	if cp := g.CriticalPath(sched.FlopsTime); cp <= 0 || cp > sum.TotalFlops*(1+1e-12) {
		t.Fatalf("critical path %g outside (0, total=%g]", cp, sum.TotalFlops)
	}
	g.RunParallel(4)
	diffBidiagonal(t, "graph-shape run", Reduce(b), finish())
}

// The warm segment kernel must not allocate: it only applies reflectors
// to slices of the shared working band, with scratch checked out of the
// worker's workspace. This pins the zero-alloc property the executors'
// steady state relies on.
func TestSegmentKernelZeroAlloc(t *testing.T) {
	b := randomBand(3, 256, 12)
	w := newWork(b)
	ws := nla.NewWorkspace(scratchElems(w.ku))
	_, sweeps, skew := cutting(w.n, w.ku, 64)
	seg := segment{i0: 5, sweeps: sweeps, a: 0, b: 128, skew: skew}
	if _, _, _, ok := w.span(seg); !ok {
		t.Fatal("segment holds no steps")
	}
	if allocs := testing.AllocsPerRun(20, func() { w.runSegment(seg, ws) }); allocs != 0 {
		t.Fatalf("segment kernel allocates: %v allocs/op", allocs)
	}
	if ws.Grows() != 0 {
		t.Fatalf("segment kernel outgrew its declared scratch")
	}
}

// TestWindowWidthClamp pins the resolution of the window parameter: huge
// user windows clamp to n (one window covers the band; an unclamped
// width would overflow the window count), and non-positive values select
// the default.
func TestWindowWidthClamp(t *testing.T) {
	if w := WindowWidth(100, 1<<62); w != 100 {
		t.Fatalf("huge window not clamped: %d", w)
	}
	if w := WindowWidth(100, 40); w != 40 {
		t.Fatalf("explicit window altered: %d", w)
	}
	if w := WindowWidth(1000, 0); w != DefaultWindow(1000) {
		t.Fatalf("default window not selected: %d", w)
	}
}
