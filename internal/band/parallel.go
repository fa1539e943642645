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
// Givens-rotation bulge chase as Reduce, decomposed into chase-segment
// tasks and executed on the internal/sched data-flow runtime, so the
// second stage of the singular value pipeline scales with the same worker
// pool that runs GE2BND.
//
// Decomposition. Eliminating superdiagonal kb is a series of sweeps;
// sweep i is a sequence of rounds: round 0 annihilates (i, i+kb), round
// r ≥ 1 chases the bulge at column c = i + r·kb. Define a round's
// position p = i + (r+1)·kb; the round touches only columns
// [p−kb−1, min(p, n−1)]. Consecutive sweeps are grouped into caravans of
// `sweeps` bulges travelling together, and each caravan's chase is cut
// into segments at fixed column boundaries w·window, SKEWED left by
// kb+2 columns per successive sweep: segment w of a caravan runs, for
// each sweep i0+l, the rounds with position in
//
//	[w·window − l·(kb+2), (w+1)·window − l·(kb+2)).
//
// Each segment is one task; it declares a read-write access on every
// fixed-width column window its rounds touch, and tasks are submitted in
// sweep order (kb descending, caravan ascending, segment ascending).
//
// Dependences. The sched runtime orders any two tasks that share a
// window by submission order. This yields the diagonal-wavefront
// pipeline of the Schwarz/Lang scheme: segment w+1 of a caravan waits
// for segment w (the bulges it carries), caravan j+1 enters a window
// region only after caravan j has left it (sweep s+1 may enter a band
// window only after sweep s has left it), and the elimination of
// superdiagonal kb−1 starts in the top-left corner while the elimination
// of kb is still draining to the bottom-right.
//
// Bitwise identity. The result is bitwise-identical to Reduce, not
// merely close, because every pair of rotations that touch a common
// element executes in the same relative order as in the sequential
// sweep-major reference:
//
//   - two rounds share an element only if their positions are within
//     kb+1 of each other;
//   - inside a segment, sweeps run in ascending order (sweep-major
//     within the cut), matching the sequential order directly;
//   - for segments w < w' of the same caravan (w executes first), an op
//     of a later sweep l' > l in segment w sits at position
//     p' < (w+1)·window − l'·(kb+2), while an op of the earlier sweep l
//     in segment w' sits at p ≥ (w+1)·window − l·(kb+2), so
//     p − p' > (l'−l)·(kb+2) − 1 ≥ kb+2: the skew guarantees the pair
//     cannot conflict, and every conflicting pair already runs in sweep
//     order;
//   - any two tasks of different caravans (or different eliminations)
//     that share a column share a window and are therefore ordered by a
//     graph edge in submission (= sequential sweep) order; tasks with no
//     common window touch disjoint columns.
//
// Each rotation therefore sees exactly the operand bits it sees in
// Reduce, and phantom rounds (a sweep whose annihilated element was
// already zero, so no bulge is in flight) write nothing at all.

const (
	// minWindow/maxWindow bound the cut width chosen by DefaultWindow.
	minWindow = 32
	maxWindow = 512
	// maxCaravan caps the sweeps per caravan so small-bandwidth
	// eliminations still pipeline across a handful of tasks.
	maxCaravan = 64
)

// DefaultWindow returns the column width of the wavefront windows (and
// segment cuts) used by the pipelined reduction of an n×n band: about
// n/16, clamped to [32, 512]. Narrower windows deepen the pipeline (more
// concurrency) at the cost of more, finer tasks; the width is
// independent of the bandwidth (caravans adapt to it instead).
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
// of the elimination of superdiagonal kb, advanced through the rounds
// whose positions fall in the skewed cut [a − l·skew, b − l·skew) for
// sweep i0+l.
type segment struct {
	kb, i0, sweeps, a, b, skew int
}

// roundsIn returns the rounds of sweep (kb, i) whose uncapped position
// i + (r+1)·kb lies in [a, b), clamped to the rounds that exist
// (rlo > rhi when the cut holds none). The truncated integer division is
// exact for the in-range cuts; out-of-range cuts only need the emptiness
// to be preserved.
func roundsIn(i, kb, a, b, n int) (rlo, rhi int) {
	rlo = (a - i + kb - 1) / kb
	rlo--
	if rlo < 0 {
		rlo = 0
	}
	rhi = (b - i + kb - 1) / kb
	rhi -= 2
	if rmax := (n - 1 - i) / kb; rhi > rmax {
		rhi = rmax
	}
	return rlo, rhi
}

// runSegment executes the segment's rounds sweep-major: for each sweep of
// the caravan in ascending order, the rounds falling in its skewed cut.
// Rounds past the end of the band do not exist (roundsIn clamps them) and
// rounds whose bulge never materialized are no-ops.
func (w *work) runSegment(seg segment) {
	for l := 0; l < seg.sweeps; l++ {
		i := seg.i0 + l
		rlo, rhi := roundsIn(i, seg.kb, seg.a-l*seg.skew, seg.b-l*seg.skew, w.n)
		if rlo > rhi {
			continue
		}
		if rlo == 0 {
			w.annihilate(seg.kb, i)
			rlo = 1
		}
		for r := rlo; r <= rhi; r++ {
			w.chaseRound(seg.kb, i, r)
		}
	}
}

// span returns the inclusive column range the segment's rounds touch and
// their modeled flop count (6 flops per rotated element pair, rotations
// counted whether or not the data makes them trivial — the model is
// data-independent, so simulated and measured graphs agree). ok is false
// when the segment contains no rounds.
func (seg segment) span(n int) (lo, hi int, flops float64, ok bool) {
	lo, hi = n, -1
	for l := 0; l < seg.sweeps; l++ {
		i := seg.i0 + l
		if i+seg.kb >= n {
			break
		}
		rlo, rhi := roundsIn(i, seg.kb, seg.a-l*seg.skew, seg.b-l*seg.skew, n)
		if rlo > rhi {
			continue
		}
		if rlo == 0 {
			// Annihilation: columns (i+kb−1, i+kb), rows [c−1−kb, c].
			c := i + seg.kb
			cnt := min(n-1, c) - max(0, c-1-seg.kb) + 1
			flops += 6 * float64(cnt)
			lo = min(lo, c-1)
			hi = max(hi, c)
			rlo = 1
		}
		if rlo > rhi {
			continue
		}
		lo = min(lo, i+rlo*seg.kb-1)
		hi = max(hi, min(n-1, i+rhi*seg.kb+seg.kb))
		// Interior rounds (c+kb ≤ n−1): a (kb+2)-column row rotation plus
		// a (kb+2)-row spill rotation each.
		rint := (n - 1 - seg.kb - i) / seg.kb
		if nFull := min(rhi, rint) - rlo + 1; nFull > 0 {
			flops += float64(nFull) * 12 * float64(seg.kb+2)
		}
		// At most one round truncates at the matrix edge (rmax = rint+1)
		// and has no spill.
		for r := max(rlo, rint+1); r <= rhi; r++ {
			c := i + r*seg.kb
			flops += 6 * float64(n-c+1)
		}
	}
	if hi < 0 {
		return 0, 0, 0, false
	}
	return lo, hi, flops, true
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
// already be resolved via WindowWidth. Each handle's payload codec
// covers every stored element of the window's columns, so a
// distributed executor can ship a window between ranks.
func newWindowHandles(g *sched.Graph, w *work, window int) []*sched.Handle {
	n := w.n
	if n <= 0 {
		return nil
	}
	nwin := (n + window - 1) / window
	handles := make([]*sched.Handle, nwin)
	// A window never holds more than its in-band columns; clamp the size
	// model so an absurdly wide user window cannot overflow the int32
	// handle size (the distributed comm accounting sums these).
	cols := min(window, n)
	winBytes64 := int64(cols) * int64(w.ku+3) * 8
	if winBytes64 > math.MaxInt32 {
		winBytes64 = math.MaxInt32
	}
	winBytes := int32(winBytes64)
	for i := range handles {
		h := g.NewHandle(winBytes, 0)
		lo, hi := i*window, min(n, (i+1)*window)
		h.SetPayload(func() []byte {
			var buf []byte
			w.eachInColumns(lo, hi, func(v *float64) {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(*v))
			})
			return buf
		})
		h.SetRestore(func(buf []byte) int {
			k := 0
			w.eachInColumns(lo, hi, func(v *float64) {
				*v = math.Float64frombits(binary.LittleEndian.Uint64(buf[k:]))
				k += 8
			})
			return k
		})
		handles[i] = h
	}
	return handles
}

// eachInColumns calls f on every stored element (i, j) with lo ≤ j < hi,
// column by column, from the subdiagonal up: the fixed order of a
// window's payload.
func (w *work) eachInColumns(lo, hi int, f func(*float64)) {
	for j := lo; j < hi; j++ {
		for s := -1; s <= w.ku+1; s++ {
			// diags[s+1] holds (j−s, j) at index j−s, except the
			// subdiagonal, which holds (j+1, j) at index j.
			d, k := w.diags[s+1], j-s
			if s < 0 {
				k = j
			}
			if k >= 0 && k < len(d) {
				f(&d[k])
			}
		}
	}
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
	var accs []sched.Access
	for kb := w.ku; kb >= 2; kb-- {
		skew := kb + 2
		caravan := window / skew
		if caravan < 1 {
			caravan = 1
		}
		if caravan > maxCaravan {
			caravan = maxCaravan
		}
		for i0 := 0; i0+kb < n; i0 += caravan {
			sweeps := min(caravan, n-kb-i0)
			// Cut range: the head's first round sits at position i0+kb;
			// the last sweep's cuts are shifted right by its skew, and its
			// final (capped) round has uncapped position < n+kb.
			wFirst := (i0 + kb) / window
			wLast := (n + kb + (sweeps-1)*skew) / window
			for cut := wFirst; cut <= wLast; cut++ {
				seg := segment{kb: kb, i0: i0, sweeps: sweeps, a: cut * window, b: (cut + 1) * window, skew: skew}
				lo, hi, flops, ok := seg.span(n)
				if !ok {
					continue
				}
				accs = accs[:0]
				for win := lo / window; win <= hi/window; win++ {
					accs = append(accs, sched.RW(handles[win]))
				}
				g.AddTask(kernels.BRDSEGKind, 0, flops, flops,
					func(*nla.Workspace) { w.runSegment(seg) }, accs...).
					SetCoords(kb, i0, cut)
			}
		}
	}
	return w.extract
}

// ReduceParallel performs BND2BD as a pipelined task graph on `workers`
// workers (window ≤ 0 selects DefaultWindow). The result is
// bitwise-identical to Reduce for every input — the graph's dependences
// order all conflicting rotations exactly as the sequential sweeps do —
// so either implementation can serve as the other's oracle. A recovered
// kernel panic is returned as the error; the partial band is not.
func ReduceParallel(b *Matrix, workers, window int) (*Matrix, error) {
	g := sched.NewGraph()
	finish := BuildReduceGraph(g, b, window)
	if err := g.RunParallel(workers); err != nil {
		return nil, err
	}
	return finish(), nil
}

// ModelFlops returns the modeled flop count of reducing an n×n band with
// ku superdiagonals (the sum of the task model in span): the figure
// GFLOP/s rates of the BND2BD stage are quoted against.
func ModelFlops(n, ku int) float64 {
	g := sched.NewGraph()
	BuildReduceGraph(g, New(n, ku), 0)
	return g.Summary().TotalFlops
}
