package band

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/tiled-la/bidiag/internal/bdsqr"
	"github.com/tiled-la/bidiag/internal/jacobi"
	"github.com/tiled-la/bidiag/internal/latms"
	"github.com/tiled-la/bidiag/internal/nla"
)

// Band generators of FuzzReduceParity, selected by its kind input.
const (
	fuzzUniform  = iota // entries uniform in [−1, 1)
	fuzzZero            // the zero band: every reflector is trivial
	fuzzZeroRows        // uniform with exact-zero rows: τ = 0 steps
	fuzzGraded          // columns graded by a latms spectrum at cond 1e12
	fuzzKinds
)

// fuzzBand builds the n×n band with ku superdiagonals of the given kind.
func fuzzBand(kind uint8, seed int64, n, ku int) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	b := New(n, ku)
	var scale []float64
	if kind%fuzzKinds == fuzzGraded {
		scale = latms.Spectrum(rng, latms.Geometric, n, 1e12)
	}
	for s := range b.diags {
		for i := range b.diags[s] {
			v := 2*rng.Float64() - 1
			switch kind % fuzzKinds {
			case fuzzZero:
				v = 0
			case fuzzZeroRows:
				if i%3 != 1 {
					v = 0
				}
			case fuzzGraded:
				v *= scale[i+s]
			}
			b.diags[s][i] = v
		}
	}
	return b
}

// FuzzReduceParity checks the two BND2BD contracts on arbitrary shapes:
// the pipelined reduction is bitwise-identical to Reduce for every
// window and worker count, and the singular values of the reduced
// bidiagonal agree with a Jacobi SVD of the dense band to 4·n·ε of σ₁.
func FuzzReduceParity(f *testing.F) {
	f.Fuzz(func(t *testing.T, nIn, kuIn, windowIn uint16, kind uint8, seed int64) {
		n := int(nIn) % 301
		ku := int(kuIn) % (n + 1)
		window := 1 + int(windowIn)%(n+8)
		b := fuzzBand(kind, seed, n, ku)
		want := Reduce(b)
		for _, workers := range []int{1, 3} {
			got, err := ReduceParallel(b, workers, window)
			if err != nil {
				t.Fatal(err)
			}
			diffBidiagonal(t, "ReduceParallel", want, got)
		}
		d, e := want.Bidiagonal()
		sv, err := bdsqr.SingularValues(d, e)
		if err != nil {
			t.Fatal(err)
		}
		ref := denseSingularValues(b)
		if len(sv) != len(ref) {
			t.Fatalf("%d singular values, want %d", len(sv), len(ref))
		}
		if n == 0 || ref[0] == 0 {
			for i, s := range sv {
				if s != 0 {
					t.Fatalf("σ[%d] = %v of a zero band", i, s)
				}
			}
			return
		}
		tol := 4 * float64(n) * 0x1p-52
		for i := range sv {
			if d := math.Abs(sv[i]-ref[i]) / ref[0]; d > tol {
				t.Fatalf("n=%d ku=%d kind=%d: σ[%d] off by %.3g·σ₁ > %.3g", n, ku, kind%fuzzKinds, i, d, tol)
			}
		}
	})
}

// denseSingularValues is the Jacobi oracle on the dense band. Exact-zero
// rows contribute only zero singular values, so they are dropped before
// the Jacobi sweeps — one-sided Jacobi converges slowly on rank-deficient
// input — and their zeros appended to the spectrum afterwards.
func denseSingularValues(b *Matrix) []float64 {
	d := b.ToDense()
	var rows []int
	for i := 0; i < b.N; i++ {
		for j := i; j < b.N; j++ {
			if d.At(i, j) != 0 {
				rows = append(rows, i)
				break
			}
		}
	}
	nz := nla.NewMatrix(len(rows), b.N)
	for k, i := range rows {
		for j := i; j < b.N; j++ {
			nz.Set(k, j, d.At(i, j))
		}
	}
	sv := make([]float64, b.N)
	if len(rows) > 0 {
		copy(sv, jacobi.SingularValues(nz))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sv)))
	return sv
}
