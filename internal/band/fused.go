package band

import "github.com/tiled-la/bidiag/internal/sched"

// This file is the band-side half of the fused GE2BND→BND2BD pipeline
// (internal/pipeline): instead of materializing the stage-1 result as a
// band.Matrix and copying it into the reduction's working storage in one
// barrier step, a Target exposes that working storage for incremental
// filling, so cross-stage adapter tasks can drain each stage-1 tile into
// it the moment the tile retires — and the chase segments reading those
// columns become runnable while stage 1 is still updating the trailing
// matrix.

// Target is the working storage of a fused reduction: the band starts
// zero and is filled element-wise by adapter tasks (via Set) before the
// chase segments of BuildSegments read it. The sched runtime provides
// the ordering — adapters and segments share the per-window data handles
// — so Set is only called on quiescent columns.
type Target struct {
	w *work
}

// NewTarget returns the zero working band of an n×n reduction with ku
// stored superdiagonals (clamped to n−1 as in New).
func NewTarget(n, ku int) *Target {
	return &Target{w: newWork(New(n, ku))}
}

// N returns the order of the band.
func (t *Target) N() int { return t.w.n }

// KU returns the stored superdiagonal count.
func (t *Target) KU() int { return t.w.ku }

// Set writes band element (i, j). It panics outside the stored band,
// matching Matrix.Set.
func (t *Target) Set(i, j int, v float64) {
	s := j - i
	if s < 0 || s > t.w.ku || i < 0 || j >= t.w.n {
		panic("band: Target.Set outside band")
	}
	t.w.a[j*t.w.ld+t.w.up-s] = v
}

// WindowHandles registers the per-window data handles of the reduction
// on g (window resolved via WindowWidth). The fused pipeline
// (internal/pipeline) creates the handles first, submits its band-fill
// adapter tasks against them, and only then appends the chase segments,
// so the sched runtime orders every segment after the adapters that
// populate the columns it touches. Each handle carries a payload codec
// over its columns, so the windows can cross ranks.
func (t *Target) WindowHandles(g *sched.Graph, window int) []*sched.Handle {
	return newWindowHandles(g, t.w, window)
}

// BuildSegments appends the chase-segment tasks of the reduction onto g,
// declaring read-write accesses on the given window handles (created
// earlier with WindowHandles for the same window), and
// returns the bidiagonal finisher. Tasks already submitted against those
// handles — the fused pipeline's band-fill adapters — order before every
// segment that touches their windows, which is exactly the cross-stage
// dependence that lets the bulge chase start on the leading columns
// while stage 1 is still running.
func (t *Target) BuildSegments(g *sched.Graph, window int, handles []*sched.Handle) (finish func() *Matrix) {
	return buildSegments(g, t.w, window, handles)
}
