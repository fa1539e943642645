// Package httpapi defines the wire types of the bidiagd HTTP API,
// version 1 — the single source of truth shared by the daemon
// (cmd/bidiagd), the shard router (cmd/bidiagrouter), and Go clients
// (package client).
//
// # Endpoints
//
//	POST /v1/singular-values   Job  -> ValuesResponse
//	POST /v1/svd               Job  -> SVDResponse
//	GET  /healthz                   -> daemon liveness document
//	GET  /metrics                   -> Prometheus text exposition
//	GET  /debug/trace/{job_id}      -> Chrome-tracing JSON array
//
// Both POST endpoints accept ?trace=1 to record the job's per-task
// timeline; the response's job_id then keys /debug/trace/{job_id}.
// Errors are returned as an ErrorResponse body with a non-2xx status:
// 400 for malformed requests and for matrices with a non-finite entry,
// 413 for oversized bodies, 429 (with Retry-After) when the daemon's
// admission queues are full, 503 when it is shutting down. ErrorStatus
// maps a job error to its status.
//
// The JSON forms here are pinned by golden-request tests: changing a
// field or tag is a wire-protocol break and needs a new version prefix.
package httpapi

import (
	"errors"
	"fmt"
	"net/http"

	"github.com/tiled-la/bidiag"
)

// Matrix is the wire form of a dense matrix: column-major data, so
// Data[i + j*M] is element (i, j).
type Matrix struct {
	M    int       `json:"m"`
	N    int       `json:"n"`
	Data []float64 `json:"data"`
}

// Options is the wire subset of bidiag.Options a job may set. The
// daemon runs shared-memory only, so there is no distributed knob.
// String fields use the same spellings the CLI flags accept.
type Options struct {
	NB        int    `json:"nb,omitempty"`
	Tree      string `json:"tree,omitempty"`      // auto | flatts | flattt | greedy
	Algorithm string `json:"algorithm,omitempty"` // auto | bidiag | rbidiag
	Workers   int    `json:"workers,omitempty"`
	Gamma     int    `json:"gamma,omitempty"`
	BND2BD    string `json:"bnd2bd,omitempty"` // auto | pipelined | sequential
	Window    int    `json:"window,omitempty"`
	// Auto defers every unset knob to the daemon's plan autotuner
	// (bidiag.Options.Auto); set knobs are honored as pins. A request
	// with NO options object at all is planned the same way.
	Auto bool `json:"auto,omitempty"`
}

// Job is the request body of both POST endpoints. The matrix fields are
// inline (embedded), matching {"m":..,"n":..,"data":[..],"options":{..}}.
type Job struct {
	Matrix
	// Options is a pointer so an options-free request is distinguishable
	// from an explicitly empty one: absent options mean "planner
	// decides" (bidiag.Options.Auto), while {} keeps the library
	// defaults.
	Options *Options `json:"options"`
}

// ValuesResponse is the body of a successful POST /v1/singular-values.
type ValuesResponse struct {
	S        []float64 `json:"s"`
	CacheHit bool      `json:"cache_hit"`
	Ms       float64   `json:"ms"`
	// JobID is set for traced requests (?trace=1): the job's timeline is
	// then available at /debug/trace/{job_id}.
	JobID string `json:"job_id,omitempty"`
}

// SVDResponse is the body of a successful POST /v1/svd.
type SVDResponse struct {
	U        Matrix    `json:"u"`
	S        []float64 `json:"s"`
	V        Matrix    `json:"v"`
	CacheHit bool      `json:"cache_hit"`
	Ms       float64   `json:"ms"`
	JobID    string    `json:"job_id,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ErrorStatus returns the HTTP status of a failed job: 400 for input the
// library rejects (bidiag.ErrNonFinite), 429 when the service is
// overloaded, 503 when it is closed, 500 for everything else.
func ErrorStatus(err error) int {
	switch {
	case errors.Is(err, bidiag.ErrNonFinite):
		return http.StatusBadRequest
	case errors.Is(err, bidiag.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, bidiag.ErrServiceClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// ToOptions lowers the wire options to bidiag.Options via the library's
// parse helpers (one shared validation path). A nil receiver is an
// options-free request: everything defers to the planner.
func (o *Options) ToOptions() (*bidiag.Options, error) {
	if o == nil {
		return &bidiag.Options{Auto: true}, nil
	}
	opts := &bidiag.Options{
		NB: o.NB, Workers: o.Workers, Gamma: o.Gamma,
		BND2BDWindow: o.Window, Auto: o.Auto,
	}
	var err error
	if opts.Tree, err = bidiag.ParseTree(o.Tree); err != nil {
		return nil, err
	}
	if opts.Algorithm, err = bidiag.ParseAlgorithm(o.Algorithm); err != nil {
		return nil, err
	}
	if opts.BND2BD, err = bidiag.ParseBND2BD(o.BND2BD); err != nil {
		return nil, err
	}
	return opts, nil
}

// Dense validates the wire matrix and lifts it to a bidiag.Dense.
func (m Matrix) Dense() (*bidiag.Dense, error) {
	if m.M <= 0 || m.N <= 0 {
		return nil, fmt.Errorf("invalid shape %dx%d", m.M, m.N)
	}
	if len(m.Data) != m.M*m.N {
		return nil, fmt.Errorf("shape %dx%d needs %d elements, got %d", m.M, m.N, m.M*m.N, len(m.Data))
	}
	return bidiag.NewDenseFromColMajor(m.M, m.N, m.Data)
}

// FromDense lowers a bidiag.Dense to its wire form.
func FromDense(d *bidiag.Dense) Matrix {
	m, n := d.Rows(), d.Cols()
	data := make([]float64, m*n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			data[i+j*m] = d.At(i, j)
		}
	}
	return Matrix{M: m, N: n, Data: data}
}
