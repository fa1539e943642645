package band

import (
	"encoding/binary"
	"math"

	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
)

// This file implements the pipelined parallel BND2BD of the companion
// report (Faverge, Langou, Robert, Dongarra, arXiv:1611.06892): the same
// Householder bulge chase as Reduce, decomposed into chase-segment tasks
// and executed on the internal/sched data-flow runtime, so the second
// stage of the singular value pipeline scales with the same worker pool
// that runs GE2BND.
//
// Decomposition. Sweep i is a sequence of steps; step k sits at position
// p = i+1+k·ku (its first column) and touches only the columns of its
// footprint [p, p+2·ku−1]. Successive sweeps move one column to the
// right. Consecutive sweeps are grouped into caravans of `sweeps` bulges
// travelling together, and each caravan's chase is cut into segments at
// fixed column boundaries w·width, SKEWED left by skew = 2·ku−1 columns
// per successive sweep: segment w of a caravan runs, for each sweep
// i0+l, the steps with position in
//
//	[w·width − l·skew, (w+1)·width − l·skew).
//
// Each segment is one task carrying several steps of several sweeps; it
// declares a read-write access on every fixed-width column window its
// steps touch (a cut may span several windows), and tasks are submitted
// in sweep order (caravan ascending, segment ascending).
//
// Dependences. The sched runtime orders any two tasks that share a
// window by submission order. This yields the diagonal-wavefront
// pipeline of the Schwarz/Lang scheme: segment w+1 of a caravan waits
// for segment w (the bulges it carries), and caravan j+1 enters a window
// only after caravan j has left it.
//
// Bitwise identity. The result is bitwise-identical to Reduce, not
// merely close, because every pair of steps that touch a common element
// executes in the same relative order as in the sequential sweep-major
// reference:
//
//   - two steps share a column only if their positions are within
//     2·ku−1 of each other;
//   - inside a segment, sweeps run in ascending order (sweep-major
//     within the cut), matching the sequential order directly;
//   - for segments w < w' of the same caravan (w executes first), a step
//     of a later sweep l' > l in segment w sits at position
//     p' < (w+1)·width − l'·skew, while a step of the earlier sweep l in
//     segment w' sits at p ≥ (w+1)·width − l·skew, so
//     p − p' > (l'−l)·skew ≥ 2·ku−1: the skew guarantees the pair cannot
//     conflict, and every conflicting pair already runs in sweep order;
//   - any two tasks of different caravans that share a column share a
//     window and are therefore ordered by a graph edge in submission
//     (= sequential sweep) order; tasks with no common window touch
//     disjoint columns.
//
// Each reflector therefore sees exactly the operand bits it sees in
// Reduce, and a trivial reflector (τ = 0) is skipped on every path.

const (
	// minWindow/maxWindow bound the window width chosen by DefaultWindow.
	minWindow = 32
	maxWindow = 512
	// maxCaravan caps the sweeps per caravan.
	maxCaravan = 64
)

// DefaultWindow returns the column width of the wavefront windows used
// by the pipelined reduction of an n×n band: about n/16, clamped to
// [32, 512]. Narrower windows deepen the pipeline (more concurrency) at
// the cost of finer dependences; the width is independent of the
// bandwidth (the segment cut adapts to it instead).
func DefaultWindow(n int) int {
	w := n / 16
	if w < minWindow {
		w = minWindow
	}
	if w > maxWindow {
		w = maxWindow
	}
	return w
}

// segment is one task of the pipelined reduction: sweeps [i0, i0+sweeps)
// advanced through the steps whose positions fall in the skewed cut
// [a − l·skew, b − l·skew) for sweep i0+l.
type segment struct {
	i0, sweeps, a, b, skew int
}

// cutting returns the segment geometry of an n×n band with ku ≥ 2
// superdiagonals under windows of the given width: the per-sweep skew,
// the cut width — a whole number of windows spanning two steps of a
// sweep, but at most about n/8 so the head of the chase can start while
// the trailing band is still being produced — and the caravan size, at
// least two sweeps and as many as the skew fits into one cut.
func cutting(n, ku, window int) (width, sweeps, skew int) {
	skew = 2*ku - 1
	width = window * max(1, (min(2*ku, n/8)+window-1)/window)
	sweeps = min(max(width/skew, 2), maxCaravan)
	return width, sweeps, skew
}

// stepsIn returns the positions of the steps of sweep i that lie in
// [lo, hi): first, first+ku, …, last (first > last when there are none).
func (w *work) stepsIn(i, lo, hi int) (first, last int) {
	first = i + 1
	if lo > first {
		first += (lo - first + w.ku - 1) / w.ku * w.ku
	}
	last = min(hi-1, w.n-2)
	if last < first {
		return first, last
	}
	return first, first + (last-first)/w.ku*w.ku
}

// runSegment executes the segment's steps sweep-major: for each sweep of
// the caravan in ascending order, the steps falling in its skewed cut.
func (w *work) runSegment(seg segment, ws *nla.Workspace) {
	for l := 0; l < seg.sweeps; l++ {
		i := seg.i0 + l
		first, last := w.stepsIn(i, seg.a-l*seg.skew, seg.b-l*seg.skew)
		for st := first; st <= last; st += w.ku {
			w.step(i, st, ws)
		}
	}
}

// span returns the inclusive column range the segment's steps touch and
// their modeled flop count (stepFlops). ok is false when the segment
// contains no steps.
func (w *work) span(seg segment) (lo, hi int, flops float64, ok bool) {
	lo, hi = w.n, -1
	for l := 0; l < seg.sweeps; l++ {
		i := seg.i0 + l
		first, last := w.stepsIn(i, seg.a-l*seg.skew, seg.b-l*seg.skew)
		if first > last {
			continue
		}
		_, _, cend := w.stepShape(i, last)
		lo, hi = min(lo, first), max(hi, cend)
		for st := first; st <= last; st += w.ku {
			flops += w.stepFlops(i, st)
		}
	}
	return lo, hi, flops, hi >= 0
}

// WindowWidth resolves the wavefront window parameter: a positive value
// is used as given — clamped to n, since one window already covers the
// whole band and an unclamped width would overflow the window count for
// absurd inputs — and anything else selects DefaultWindow(n).
func WindowWidth(n, window int) int {
	if window > 0 {
		if n > 0 && window > n {
			return n
		}
		return window
	}
	return DefaultWindow(n)
}

// newWindowHandles registers the per-window data handles of the
// reduction over w on g and returns them (nil for n = 0). window must
// already be resolved via WindowWidth. A window's columns are one
// contiguous slice of the packed band, and each handle's payload codec
// copies exactly that slice, so a distributed executor can ship a
// window between ranks.
func newWindowHandles(g *sched.Graph, w *work, window int) []*sched.Handle {
	n := w.n
	if n <= 0 {
		return nil
	}
	nwin := (n + window - 1) / window
	handles := make([]*sched.Handle, nwin)
	// Clamp the size model so an absurdly wide band cannot overflow the
	// int32 handle size (the distributed comm accounting sums these).
	winBytes := int32(min(int64(min(window, n))*int64(w.ld)*8, math.MaxInt32))
	for i := range handles {
		h := g.NewHandle(winBytes, 0)
		cols := w.a[i*window*w.ld : min(n, (i+1)*window)*w.ld]
		h.SetPayload(func() []byte {
			buf := make([]byte, 0, 8*len(cols))
			for _, v := range cols {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
			return buf
		})
		h.SetRestore(func(buf []byte) int {
			for k := range cols {
				cols[k] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*k:]))
			}
			return 8 * len(cols)
		})
		handles[i] = h
	}
	return handles
}

// BuildReduceGraph appends the pipelined BND2BD task DAG for b onto g and
// returns the finisher that extracts the bidiagonal result once the
// graph has been executed (by any sched engine: RunSequential,
// RunParallel, or a simulator ignoring the closures). window ≤ 0 selects
// DefaultWindow. The input matrix is not modified; the tasks share one
// private working copy of the band.
func BuildReduceGraph(g *sched.Graph, b *Matrix, window int) (finish func() *Matrix) {
	window = WindowWidth(b.N, window)
	w := newWork(b)
	return buildSegments(g, w, window, newWindowHandles(g, w, window))
}

// buildSegments emits the chase-segment tasks of the reduction over w
// onto g, declaring read-write accesses on the given pre-registered
// window handles, and returns the bidiagonal finisher. It is shared by
// the staged entry point (BuildReduceGraph) and the fused one
// (Target.BuildSegments).
func buildSegments(g *sched.Graph, w *work, window int, handles []*sched.Handle) (finish func() *Matrix) {
	n := w.n
	if w.ku < 2 {
		return w.extract
	}
	g.NeedScratch(scratchElems(w.ku))
	width, caravan, skew := cutting(n, w.ku, window)
	var accs []sched.Access
	for i0 := 0; i0+2 < n; i0 += caravan {
		sweeps := min(caravan, n-2-i0)
		// Cut range: the head's first step sits at position i0+1; the
		// last sweep's cuts are shifted right by its skew, and no step
		// sits past position n−2.
		wFirst := (i0 + 1) / width
		wLast := (n - 2 + (sweeps-1)*skew) / width
		for cut := wFirst; cut <= wLast; cut++ {
			seg := segment{i0: i0, sweeps: sweeps, a: cut * width, b: (cut + 1) * width, skew: skew}
			lo, hi, flops, ok := w.span(seg)
			if !ok {
				continue
			}
			accs = accs[:0]
			for win := lo / window; win <= hi/window; win++ {
				accs = append(accs, sched.RW(handles[win]))
			}
			g.AddTask(kernels.BRDSEGKind, 0, flops, flops,
				func(ws *nla.Workspace) { w.runSegment(seg, ws) }, accs...).
				SetCoords(i0, cut, 0)
		}
	}
	return w.extract
}

// ReduceParallel performs BND2BD as a pipelined task graph on `workers`
// workers (window ≤ 0 selects DefaultWindow). The result is
// bitwise-identical to Reduce for every input — the graph's dependences
// order all conflicting steps exactly as the sequential sweeps do — so
// either implementation can serve as the other's oracle. A recovered
// kernel panic is returned as the error; the partial band is not.
func ReduceParallel(b *Matrix, workers, window int) (*Matrix, error) {
	g := sched.NewGraph()
	finish := BuildReduceGraph(g, b, window)
	if err := g.RunParallel(workers); err != nil {
		return nil, err
	}
	return finish(), nil
}

// ModelFlops returns the rating flop count of reducing an n×n band with
// ku superdiagonals, 6·n²·ku — the count machine.BND2BDTime and the
// planner price stage 2 with, and the figure GFLOP/s rates of the BND2BD
// stage are quoted against. It is a fixed convention, not the task
// model: the graph's per-task flops (stepFlops) count the Householder
// updates actually issued.
func ModelFlops(n, ku int) float64 {
	fn := float64(n)
	return 6 * fn * fn * float64(ku)
}
