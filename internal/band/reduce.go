package band

import "github.com/tiled-la/bidiag/internal/nla"

// Reduce performs the BND2BD stage: it reduces an upper-band matrix
// (diagonal plus KU superdiagonals, the output shape of the tiled GE2BND
// algorithms) to upper bidiagonal form with a Householder bulge chase,
// the kernel family of PLASMA's band-to-bidiagonal reduction
// (arXiv:1611.06892). The input is not modified; the returned matrix has
// KU = 1 (or less for tiny n). Singular values are preserved.
//
// The reduction is one pass of sweeps over a column-packed band. Sweep i
// zeroes row i beyond its superdiagonal with one right reflector of
// length ≤ KU, then zeroes the subdiagonal bulge that reflector filled
// in with one left reflector; the left reflector spills a triangle past
// the band, whose first row the next step's right reflector zeroes, and
// so on: the sweep chases its bulge off the band in steps of KU columns.
// The remnants a step leaves below the diagonal and above the band are
// cleaned up by the following sweeps — O(n²·KU) work in total, memory
// bound, exactly the profile the paper ascribes to BND2BD.
//
// Reduce executes every sweep to completion before starting the next: it
// is single-threaded and serves as the numerical reference (oracle) for
// the pipelined parallel implementation in parallel.go, which runs the
// exact same steps in a sequentially consistent order and is therefore
// bitwise-identical.
func Reduce(b *Matrix) *Matrix {
	w := newWork(b)
	if w.ku < 2 {
		return w.extract()
	}
	ws := nla.NewWorkspace(scratchElems(w.ku))
	for i := 0; i+2 < w.n; i++ {
		for st := i + 1; st+1 < w.n; st += w.ku {
			w.step(i, st, ws)
		}
	}
	return w.extract()
}

// work is the column-packed working band of a reduction: column j
// stores rows j−up … j+lo contiguously, where up = 2·ku−1 covers the
// band and the spill a chase step leaves above it and lo = ku−1 the
// subdiagonal bulge (a band with ku < 2 is never chased and stores just
// its ku superdiagonals). A reflector therefore reads and writes
// contiguous column segments, and a window of columns is one contiguous
// slice.
type work struct {
	n, ku int
	up    int // stored superdiagonals; element (r, c) sits at c·ld + up + r − c
	ld    int // column stride, up + 1 + lo
	a     []float64
}

// newWork returns the packed working copy of b.
func newWork(b *Matrix) *work {
	w := &work{n: b.N, ku: b.KU, up: b.KU}
	lo := 0
	if b.KU >= 2 {
		w.up, lo = 2*b.KU-1, b.KU-1
	}
	w.ld = w.up + 1 + lo
	w.a = make([]float64, b.N*w.ld)
	for s, d := range b.diags {
		for i, v := range d {
			w.a[(i+s)*w.ld+w.up-s] = v
		}
	}
	return w
}

// scratchElems returns the workspace elements one chase step checks out:
// the reflector vector (≤ ku) and the right update's row accumulator
// (≤ 2·ku − 1).
func scratchElems(ku int) int { return 3 * ku }

// extract copies the main diagonal and first superdiagonal into a fresh
// bidiagonal matrix, the result shape of the reduction.
func (w *work) extract() *Matrix {
	n := w.n
	out := New(n, min(1, max(n-1, 0)))
	for j := 0; j < n; j++ {
		out.diags[0][j] = w.a[j*w.ld+w.up]
		if j > 0 && w.up > 0 {
			out.diags[1][j-1] = w.a[j*w.ld+w.up-1]
		}
	}
	return out
}

// stepShape returns the geometry of the chase step of sweep i at column
// st: the step's reflectors act on columns/rows [st, ed]; the right one
// zeroes row r over columns st+1…ed and updates rows r+1…ed; the left
// one updates columns st+1…cend.
func (w *work) stepShape(i, st int) (ed, r, cend int) {
	ed = min(st+w.ku-1, w.n-1)
	r = st - w.ku
	if st == i+1 {
		r = i
	}
	return ed, r, min(ed+w.ku, w.n-1)
}

// stepFlops is the modeled flop count of one chase step: 4 flops per
// element each reflector updates. The model is data-independent — a
// step whose reflectors turn out trivial is counted all the same — so
// simulated and measured graphs agree.
func (w *work) stepFlops(i, st int) float64 {
	ed, r, cend := w.stepShape(i, st)
	l := float64(ed - st + 1)
	return 4 * l * float64(ed-r+cend-st)
}

// step runs the chase step of sweep i at column st (st = i+1+k·ku for
// step k, st+1 < n): a right reflector on columns st…ed zeroes row r
// past (r, st) — the band row i for k = 0, otherwise the first row of
// the spill the previous step left — and a left reflector on rows
// st…ed zeroes the subdiagonal of column st, spilling into columns
// ed+1…ed+ku for the next step to chase. A reflector whose target is
// already zero (τ = 0) is the identity and is not applied. Scratch comes
// from ws (scratchElems(ku) elements) and is released on return.
func (w *work) step(i, st int, ws *nla.Workspace) {
	a, ld, up := w.a, w.ld, w.up
	ed, r, cend := w.stepShape(i, st)
	l := ed - st + 1
	mark := ws.Mark()
	v := ws.ScratchVec(l - 1)

	// Right reflector: gather row r over columns st+1…ed (stride ld−1).
	rs := st*ld + up + r - st // index of (r, st)
	for q := range v {
		k := rs + (q+1)*(ld-1)
		v[q], a[k] = a[k], 0
	}
	beta, tau := nla.Larfg(a[rs], v)
	a[rs] = beta
	if tau != 0 {
		m := ed - r
		y := ws.ScratchVec(m)
		col := func(q int) []float64 {
			k := rs + q*(ld-1) + 1
			return a[k : k+m]
		}
		copy(y, col(0))
		q := 1
		for ; q+3 < l; q += 4 {
			nla.Gaxpy4(v[q-1], v[q], v[q+1], v[q+2], col(q), col(q+1), col(q+2), col(q+3), y)
		}
		for ; q < l; q++ {
			nla.Axpy(v[q-1], col(q), y)
		}
		nla.Axpy(-tau, y, col(0))
		q = 1
		for ; q+3 < l; q += 4 {
			nla.Axpy4(-tau*v[q-1], -tau*v[q], -tau*v[q+1], -tau*v[q+2], y, col(q), col(q+1), col(q+2), col(q+3))
		}
		for ; q < l; q++ {
			nla.Axpy(-tau*v[q-1], y, col(q))
		}
	}

	// Left reflector: column st below the diagonal (contiguous).
	d := st*ld + up
	copy(v, a[d+1:d+l])
	clear(a[d+1 : d+l])
	beta, tau = nla.Larfg(a[d], v)
	a[d] = beta
	if tau != 0 {
		seg := func(c int) []float64 {
			k := c*ld + up + st - c
			return a[k : k+l]
		}
		c := st + 1
		for ; c+3 <= cend; c += 4 {
			s0, s1, s2, s3 := seg(c), seg(c+1), seg(c+2), seg(c+3)
			w0, w1, w2, w3 := nla.Dot4(v, s0[1:], s1[1:], s2[1:], s3[1:])
			w0, w1, w2, w3 = tau*(s0[0]+w0), tau*(s1[0]+w1), tau*(s2[0]+w2), tau*(s3[0]+w3)
			s0[0] -= w0
			s1[0] -= w1
			s2[0] -= w2
			s3[0] -= w3
			nla.Axpy4(-w0, -w1, -w2, -w3, v, s0[1:], s1[1:], s2[1:], s3[1:])
		}
		for ; c <= cend; c++ {
			s := seg(c)
			wc := tau * (s[0] + nla.Dot(v, s[1:]))
			s[0] -= wc
			nla.Axpy(-wc, v, s[1:])
		}
	}
	ws.Release(mark)
}
