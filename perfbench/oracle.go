package main

import (
	"fmt"
	"math"

	"github.com/tiled-la/bidiag"
)

// The oracle's tolerances, as multiples of max(m, n)·ε. One set serves
// every workload. At the seed commit the worst passing errors were 0.7
// (singular values; 0.2 at 1024²), 1.2 (residual) and 3.8
// (orthogonality), so a result several times above those is a failure,
// not rounding noise.
const (
	valuesTol   = 4.0  // max|σ̂ᵢ−σᵢ| / σ₁
	residualTol = 8.0  // ‖A − U·Σ·Vᵀ‖_F / ‖A‖_F
	orthoTol    = 16.0 // max|UᵀU − I| and max|VᵀV − I|
)

const eps = 0x1p-52

// check is one operation's verdict. The errors are in units of the
// tolerance scale max(m, n)·ε.
type check struct {
	ValuesErr, Residual, OrthoU, OrthoV float64
	Err                                 error // nil when the result passed
}

// checkValues compares computed singular values with the prescribed ones.
func checkValues(in *input, got []float64) check {
	scale := float64(max(in.M, in.N)) * eps
	c := check{ValuesErr: valuesError(in.Sigma, got) / scale}
	if !(c.ValuesErr <= valuesTol) {
		c.Err = fmt.Errorf("%v: singular-value error %.3g·max(m,n)·ε > %g", in.spec, c.ValuesErr, valuesTol)
	}
	return c
}

// valuesError is max|σ̂ᵢ−σᵢ|/σ₁, or +Inf when the counts differ.
func valuesError(want, got []float64) float64 {
	if len(got) != len(want) || len(want) == 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range want {
		d := math.Abs(got[i] - want[i])
		if !(d <= worst) { // also catches NaN
			worst = d
		}
	}
	return worst / want[0]
}

// checkSVD checks the singular values, the residual and the
// orthonormality of both factors of a thin SVD.
func checkSVD(in *input, r *bidiag.SVDResult) check {
	if r == nil || r.U == nil || r.V == nil {
		return check{Err: fmt.Errorf("%v: SVD returned no factors", in.spec)}
	}
	c := checkValues(in, r.S)
	m, n, k := in.M, in.N, min(in.M, in.N)
	if r.U.Rows() != m || r.U.Cols() != k || r.V.Rows() != n || r.V.Cols() != k || len(r.S) != k {
		c.Err = fmt.Errorf("%v: SVD factors have shapes U %dx%d, V %dx%d, %d values",
			in.spec, r.U.Rows(), r.U.Cols(), r.V.Rows(), r.V.Cols(), len(r.S))
		return c
	}
	u, v, a := colMajor(r.U), colMajor(r.V), colMajor(in.A)
	scale := float64(max(m, n)) * eps
	c.Residual = residual(a, u, r.S, v, m, n, k) / scale
	c.OrthoU = orthoError(u, m, k) / scale
	c.OrthoV = orthoError(v, n, k) / scale
	switch {
	case c.Err != nil:
	case !(c.Residual <= residualTol):
		c.Err = fmt.Errorf("%v: residual %.3g·max(m,n)·ε > %g", in.spec, c.Residual, residualTol)
	case !(c.OrthoU <= orthoTol):
		c.Err = fmt.Errorf("%v: max|UᵀU−I| %.3g·max(m,n)·ε > %g", in.spec, c.OrthoU, orthoTol)
	case !(c.OrthoV <= orthoTol):
		c.Err = fmt.Errorf("%v: max|VᵀV−I| %.3g·max(m,n)·ε > %g", in.spec, c.OrthoV, orthoTol)
	}
	return c
}

// colMajor copies a Dense into a packed column-major slice.
func colMajor(d *bidiag.Dense) []float64 {
	m, n := d.Rows(), d.Cols()
	out := make([]float64, m*n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			out[i+j*m] = d.At(i, j)
		}
	}
	return out
}

// residual is ‖A − U·diag(s)·Vᵀ‖_F / ‖A‖_F for packed column-major
// A (m×n), U (m×k) and V (n×k).
func residual(a, u, s, v []float64, m, n, k int) float64 {
	r := append([]float64(nil), a...)
	for j := 0; j < n; j++ {
		col := r[j*m : (j+1)*m]
		for l := 0; l < k; l++ {
			c := s[l] * v[j+l*n]
			if c == 0 {
				continue
			}
			ul := u[l*m : (l+1)*m]
			for i := range col {
				col[i] -= ul[i] * c
			}
		}
	}
	return frobenius(r) / frobenius(a)
}

func frobenius(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// orthoError is max|QᵀQ − I| over a packed column-major m×k Q.
func orthoError(q []float64, m, k int) float64 {
	worst := 0.0
	for a := 0; a < k; a++ {
		qa := q[a*m : (a+1)*m]
		for b := a; b < k; b++ {
			qb := q[b*m : (b+1)*m]
			var d float64
			for i := range qa {
				d += qa[i] * qb[i]
			}
			if a == b {
				d--
			}
			if d = math.Abs(d); !(d <= worst) {
				worst = d
			}
		}
	}
	return worst
}
