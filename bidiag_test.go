package bidiag

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/tiled-la/bidiag/internal/jacobi"
	"github.com/tiled-la/bidiag/internal/latms"
)

func randomDense(seed int64, m, n int) *Dense {
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			d.Set(i, j, rng.NormFloat64())
		}
	}
	return d
}

func TestSingularValuesDefaults(t *testing.T) {
	a := randomDense(1, 60, 40)
	want := jacobi.SingularValues(a.inner)
	got, err := SingularValues(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := jacobi.MaxRelDiff(got, want); diff > 1e-12 {
		t.Fatalf("defaults off by %g", diff)
	}
}

func TestSingularValuesAllTreesAndAlgorithms(t *testing.T) {
	a := randomDense(2, 50, 20)
	want := jacobi.SingularValues(a.inner)
	for _, tr := range []Tree{Auto, FlatTS, FlatTT, Greedy} {
		for _, alg := range []Algorithm{AutoAlgorithm, Bidiag, RBidiag} {
			got, err := SingularValues(a, &Options{Tree: tr, Algorithm: alg, NB: 8, Workers: 3})
			if err != nil {
				t.Fatalf("%v/%v: %v", tr, alg, err)
			}
			if diff := jacobi.MaxRelDiff(got, want); diff > 1e-12 {
				t.Errorf("%v/%v: off by %g", tr, alg, diff)
			}
		}
	}
}

func TestPaperAccuracyProtocol(t *testing.T) {
	// The paper's check: generate matrices with prescribed singular values
	// (LATMS) and verify the pipeline recovers them to machine precision.
	rng := rand.New(rand.NewSource(3))
	for _, mode := range []latms.Mode{latms.Geometric, latms.Arithmetic, latms.OneSmall, latms.RandomLog} {
		a, sigma := latms.Generate(rng, 96, 48, mode, 1e6)
		d := &Dense{inner: a}
		got, err := SingularValues(d, &Options{NB: 16})
		if err != nil {
			t.Fatal(err)
		}
		if diff := jacobi.MaxRelDiff(got, sigma); diff > 1e-12 {
			t.Errorf("mode %d: prescribed spectrum off by %g", mode, diff)
		}
	}
}

func TestWideMatrixTransposed(t *testing.T) {
	a := randomDense(4, 20, 45)
	want := jacobi.SingularValues(a.inner)
	got, err := SingularValues(a, &Options{NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("want min(m,n) singular values, got %d", len(got))
	}
	if diff := jacobi.MaxRelDiff(got, want); diff > 1e-12 {
		t.Fatalf("wide matrix off by %g", diff)
	}
}

func TestGE2BNDBandShape(t *testing.T) {
	a := randomDense(5, 64, 32)
	b, err := GE2BND(a, &Options{NB: 8, Algorithm: Bidiag, Tree: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	if b.N() != 32 || b.Bandwidth() != 8 {
		t.Fatalf("band shape wrong: n=%d ku=%d", b.N(), b.Bandwidth())
	}
	if b.UsedRBidiag {
		t.Fatalf("explicit Bidiag must not use R path")
	}
	if b.TasksExecuted == 0 {
		t.Fatalf("task count missing")
	}
	// Frobenius mass is preserved by orthogonal reduction.
	var bandSq, inSq float64
	for i := 0; i < 32; i++ {
		for j := i; j <= i+8 && j < 32; j++ {
			bandSq += b.At(i, j) * b.At(i, j)
		}
	}
	for j := 0; j < 32; j++ {
		for i := 0; i < 64; i++ {
			inSq += a.At(i, j) * a.At(i, j)
		}
	}
	if math.Abs(bandSq-inSq) > 1e-9*inSq {
		t.Fatalf("band does not carry the matrix mass: %v vs %v", bandSq, inSq)
	}
}

func TestAutoAlgorithmSwitch(t *testing.T) {
	// m/n = 2 > 5/3: should take the R path.
	a := randomDense(6, 80, 40)
	b, err := GE2BND(a, &Options{NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !b.UsedRBidiag {
		t.Fatalf("80x40 should auto-select R-bidiagonalization")
	}
	// Square: direct path.
	c := randomDense(7, 40, 40)
	b2, err := GE2BND(c, &Options{NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if b2.UsedRBidiag {
		t.Fatalf("square matrix should auto-select direct BIDIAG")
	}
}

func TestNewDenseFromColMajor(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	d, err := NewDenseFromColMajor(2, 3, data)
	if err != nil {
		t.Fatal(err)
	}
	if d.At(1, 2) != 6 || d.At(0, 1) != 3 {
		t.Fatalf("column-major interpretation wrong")
	}
	if _, err := NewDenseFromColMajor(3, 3, data); err == nil {
		t.Fatalf("short data should error")
	}
}

func TestEmptyMatrixErrors(t *testing.T) {
	if _, err := GE2BND(&Dense{inner: randomDense(8, 1, 1).inner.View(0, 0, 0, 0)}, nil); err == nil {
		t.Fatalf("empty matrix should error")
	}
}

func TestCriticalPathAPI(t *testing.T) {
	// FlatTS closed form 12pq − 6p + 2q − 4.
	got, err := CriticalPath(Bidiag, FlatTS, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(12*8*4 - 6*8 + 2*4 - 4)
	if got != want {
		t.Fatalf("CriticalPath = %v, want %v", got, want)
	}
	f, err := CriticalPathFormula(FlatTS, 8, 4)
	if err != nil || f != want {
		t.Fatalf("CriticalPathFormula = %v (%v)", f, err)
	}
	if _, err := CriticalPath(Bidiag, Auto, 8, 4); err == nil {
		t.Fatalf("Auto tree must be rejected for CP analysis")
	}
	if _, err := CriticalPath(Bidiag, Greedy, 3, 4); err == nil {
		t.Fatalf("p < q must be rejected")
	}
	best, err := CriticalPath(AutoAlgorithm, Greedy, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := CriticalPath(Bidiag, Greedy, 40, 4)
	r, _ := CriticalPath(RBidiag, Greedy, 40, 4)
	if best != math.Min(b, r) {
		t.Fatalf("AutoAlgorithm CP should be the min")
	}
}

func TestCrossoverRatioAPI(t *testing.T) {
	d, ok, err := CrossoverRatio(Greedy, 8, 16)
	if err != nil || !ok {
		t.Fatalf("crossover not found: %v", err)
	}
	if d < 2 || d > 9 {
		t.Fatalf("δs implausible: %v", d)
	}
	if _, _, err := CrossoverRatio(Auto, 8, 16); err == nil {
		t.Fatalf("Auto tree must be rejected")
	}
}

func TestStringers(t *testing.T) {
	if Auto.String() != "Auto" || Greedy.String() != "Greedy" || Tree(9).String() == "" {
		t.Fatalf("tree names")
	}
	if Bidiag.String() != "Bidiag" || RBidiag.String() != "RBidiag" || AutoAlgorithm.String() != "AutoAlgorithm" {
		t.Fatalf("algorithm names")
	}
}

// Regression test for the once-unreachable "RBidiag && m < n" guard:
// GE2BND transposes wide inputs before the algorithm choice applies, so
// R-bidiagonalization composes with the transpose and must be accepted —
// and actually run — for every nonempty shape. (The guard used to sit
// after the transpose, where m ≥ n always holds; it has been removed and
// the composition documented instead.)
func TestRBidiagComposesWithTranspose(t *testing.T) {
	a := randomDense(9, 10, 20) // wide: reduced through its 20×10 transpose
	b, err := GE2BND(a, &Options{Algorithm: RBidiag, NB: 4})
	if err != nil {
		t.Fatalf("RBidiag on a wide input must compose with the transpose: %v", err)
	}
	if !b.UsedRBidiag {
		t.Fatalf("explicit RBidiag did not run the R-bidiagonalization path")
	}
	got, err := SingularValues(a, &Options{Algorithm: RBidiag, NB: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := jacobi.SingularValues(a.inner)
	if diff := jacobi.MaxRelDiff(got, want); diff > 1e-12 {
		t.Fatalf("RBidiag on wide input off by %g", diff)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o *Options
	v, err := o.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if v.NB != 64 || v.Workers < 1 || v.Gamma != 2 {
		t.Fatalf("nil options defaults wrong: %+v", v)
	}
	v2, err := (&Options{NB: 128, Gamma: 4}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if v2.NB != 128 || v2.Gamma != 4 {
		t.Fatalf("explicit options overridden: %+v", v2)
	}
	if _, err := (&Options{BND2BDWindow: -1}).withDefaults(); err == nil {
		t.Fatalf("negative BND2BDWindow must be rejected")
	}
}

// TestBND2BDWindowOption pins the satellite knob: a negative window is
// rejected by every entry point, and any positive window yields bitwise
// the same singular values as the default (the window moves task
// boundaries, never reflectors).
func TestBND2BDWindowOption(t *testing.T) {
	a := randomDense(31, 70, 50)
	if _, err := GE2BND(a, &Options{BND2BDWindow: -3}); err == nil {
		t.Fatalf("GE2BND must reject a negative window")
	}
	if _, err := SingularValues(a, &Options{BND2BDWindow: -3}); err == nil {
		t.Fatalf("SingularValues must reject a negative window")
	}
	if _, err := SVD(a, &Options{BND2BDWindow: -3}); err == nil {
		t.Fatalf("SVD must reject a negative window")
	}
	ref, err := SingularValues(a, &Options{NB: 16, Tree: Greedy, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 7, 33, 1024, 1 << 40} {
		got, err := SingularValues(a, &Options{NB: 16, Tree: Greedy, Workers: 2, BND2BDWindow: window})
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("window %d changed singular value %d: %v != %v", window, i, got[i], ref[i])
			}
		}
	}
}

func TestGE2BNDTinyNBLargerThanMatrix(t *testing.T) {
	a := randomDense(20, 5, 3)
	sv, err := SingularValues(a, &Options{NB: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := jacobi.SingularValues(a.inner)
	if d := jacobi.MaxRelDiff(sv, want); d > 1e-12 {
		t.Fatalf("tiny matrix with huge NB off by %g", d)
	}
}

func TestBandAtOutside(t *testing.T) {
	a := randomDense(21, 32, 16)
	b, err := GE2BND(a, &Options{NB: 8})
	if err != nil {
		t.Fatal(err)
	}
	if b.At(10, 0) != 0 {
		t.Fatalf("below-diagonal band reads must be zero")
	}
}

func TestInvalidTreeRejected(t *testing.T) {
	a := randomDense(22, 8, 8)
	if _, err := GE2BND(a, &Options{Tree: Tree(99)}); err == nil {
		t.Fatalf("invalid tree must error")
	}
	if _, err := SVD(a, &Options{Tree: Tree(99)}); err == nil {
		t.Fatalf("invalid tree must error in SVD")
	}
}

func TestPipelineCriticalPath(t *testing.T) {
	fused, s1, s2, err := PipelineCriticalPath(Greedy, 256, 256, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fused >= s1+s2 {
		t.Fatalf("square fused cp %v not strictly below staged sum %v", fused, s1+s2)
	}
	if fused < s1 || fused < s2 {
		t.Fatalf("fused cp %v below a single stage (%v, %v)", fused, s1, s2)
	}
	if _, _, _, err := PipelineCriticalPath(Auto, 256, 256, 32, 0); err == nil {
		t.Fatalf("Auto tree must be rejected")
	}
	if _, _, _, err := PipelineCriticalPath(Greedy, 128, 256, 32, 0); err == nil {
		t.Fatalf("m < n must be rejected")
	}
	if _, _, _, err := PipelineCriticalPath(Greedy, 256, 256, 32, -1); err == nil {
		t.Fatalf("negative window must be rejected")
	}
}

// TestNonFiniteInputRejected pins the input contract for NaN and ±Inf
// entries: every entry point returns ErrNonFinite instead of finite
// singular values (a +Inf entry) or a QR non-convergence (a NaN entry).
func TestNonFiniteInputRejected(t *testing.T) {
	svc := NewService(&ServiceConfig{Workers: 2})
	defer svc.Close()
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, shape := range [][2]int{{128, 128}, {40, 90}} {
			a := randomDense(9, shape[0], shape[1])
			a.Set(shape[0]/2, shape[1]-1, bad)
			check := func(entry string, err error) {
				t.Helper()
				if !errors.Is(err, ErrNonFinite) {
					t.Errorf("%v in %dx%d: %s returned %v, want ErrNonFinite", bad, shape[0], shape[1], entry, err)
				}
			}
			_, err := SingularValues(a, nil)
			check("SingularValues", err)
			_, err = SingularValues(a, &Options{Auto: true, Workers: 2})
			check("SingularValues(Auto)", err)
			_, err = SVD(a, nil)
			check("SVD", err)
			_, err = GE2BND(a, &Options{Distributed: &DistOptions{Nodes: 2}})
			check("GE2BND(Distributed)", err)
			for _, kind := range []JobKind{JobSingularValues, JobSVD} {
				_, err = svc.Do(context.Background(), JobRequest{Kind: kind, A: a})
				check("Service.Do", err)
			}
		}
	}
}
