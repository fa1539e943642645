// Package bidiag provides parallel tiled bidiagonalization and singular
// value computation, a Go implementation of the algorithms of Faverge,
// Langou, Robert and Dongarra, "Bidiagonalization and R-Bidiagonalization:
// Parallel Tiled Algorithms, Critical Paths and Distributed-Memory
// Implementation" (IPDPS 2017).
//
// The package reduces a dense m×n matrix (m ≥ n) to band-bidiagonal form
// with tiled orthogonal transformations (GE2BND), optionally preceded by a
// QR factorization (R-bidiagonalization) for tall-skinny matrices, then to
// bidiagonal form by bulge chasing (BND2BD), and finally to singular
// values by the Demmel–Kahan QR iteration (BD2VAL):
//
//	sv, err := bidiag.SingularValues(a, nil)          // defaults
//
//	opts := &bidiag.Options{Tree: bidiag.Greedy, NB: 64, Workers: 8}
//	sv, err = bidiag.SingularValues(a, opts)
//
// Every QR/LQ panel reduction is driven by a configurable reduction tree
// (FlatTS, FlatTT, Greedy, or the adaptive Auto tree of the paper), and
// both reduction stages execute as task graphs on the same data-flow
// runtime: GE2BND as tiled QR/LQ kernels, and BND2BD as a pipelined
// diagonal wavefront of bulge-chase segments (Options.BND2BD selects the
// sequential reference instead), so the full pipeline — not just the
// first stage — scales with Options.Workers.
//
// Setting Options.Fused goes one step further for SingularValues: the
// GE2BND kernels and the BND2BD chase segments are emitted into ONE task
// graph (internal/pipeline) with cross-stage dependencies, so the bulge
// chase starts on the leading band columns while the trailing stage-1
// updates are still running — no barrier, no intermediate band
// materialization. The fused and staged paths are bitwise-identical; the
// staged path (Fused = false, the default) remains the reference oracle.
// All engine dispatch — sequential order, the shared-memory pool, the
// distributed owner-compute executor — lives in a single
// pipeline.Executor layer that every public entry point routes through.
//
// Setting Options.Distributed executes the reduction on a grid of
// in-process distributed-memory nodes instead: tiles are distributed 2D
// block-cyclically, every QR/LQ panel uses the paper's hierarchical
// (local × high-level) reduction trees, each task runs on the node owning
// its output tile, and cross-node data dependencies are satisfied by
// explicit messages whose count and volume are reported back:
//
//	opts := &bidiag.Options{Distributed: &bidiag.DistOptions{Nodes: 4}}
//	b, _ := bidiag.GE2BND(a, opts)
//	fmt.Println(b.Dist.CommVolume)
//
// Distributed runs are deterministic — repeating the same configuration
// is bitwise-reproducible regardless of how the node pools interleave —
// and their singular values agree with the shared-memory path to
// rounding. (The band factor itself may differ in signs: the distributed
// trees are a different, equally valid, elimination order.)
//
// For serving many concurrent reductions, Service multiplexes jobs over
// ONE shared elastic worker pool with bounded admission, gang batching
// of small matrices, a content-addressed result cache, per-job
// cancellation and panic isolation (see NewService and the README
// "Serving" section); cmd/bidiagd exposes it over HTTP. The one-shot
// entry points gain context-aware variants (SingularValuesCtx, SVDCtx)
// that stop scheduling and return ctx.Err() on cancellation.
//
// Concurrency contract: every exported function and type in this
// package is safe for concurrent use, with two caveats. A Dense must
// not be mutated while a call or service job is reading it, and values
// returned from a Service may be cache-shared between callers — treat
// results as immutable. Kernel panics never take down the process: they
// surface as errors from the call (or job) that owns them, naming the
// kernel kind.
package bidiag

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/bdsqr"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/tile"
	"github.com/tiled-la/bidiag/internal/trees"
)

// Tree selects the reduction tree used for every QR and LQ panel.
type Tree int

const (
	// Auto is the adaptive tree of the paper's Section V: FLATTS groups
	// sized to keep every core busy, chained by a GREEDY tree. It is the
	// recommended default ("AUTO outperforms its competitors in almost
	// every test case").
	Auto Tree = iota
	// FlatTS eliminates each panel sequentially with the most efficient
	// (TS) kernels: best asymptotic kernel throughput, least parallelism.
	FlatTS
	// FlatTT is the flat tree with TT kernels: more update parallelism at
	// lower kernel efficiency.
	FlatTT
	// Greedy reduces each panel by a binomial tree in ⌈log₂⌉ rounds, the
	// minimum-depth reduction.
	Greedy
)

func (t Tree) String() string {
	switch t {
	case Auto:
		return "Auto"
	case FlatTS:
		return "FlatTS"
	case FlatTT:
		return "FlatTT"
	case Greedy:
		return "Greedy"
	}
	return fmt.Sprintf("Tree(%d)", int(t))
}

func (t Tree) kind() (trees.Kind, error) {
	switch t {
	case Auto:
		return trees.Auto, nil
	case FlatTS:
		return trees.FlatTS, nil
	case FlatTT:
		return trees.FlatTT, nil
	case Greedy:
		return trees.Greedy, nil
	}
	return 0, fmt.Errorf("bidiag: unknown tree %d", int(t))
}

// BND2BD selects the implementation of the pipeline's second stage, the
// band-to-bidiagonal Householder bulge chase. Both implementations apply
// the same reflectors in a sequentially consistent order, so their
// results are bitwise-identical; the switch exists to force the
// single-threaded reference (as a baseline or oracle) and to pin the
// pipeline in tests.
type BND2BD int

const (
	// BND2BDAuto (the default) runs the pipelined task-graph reduction on
	// Options.Workers workers — the same pool that executes GE2BND.
	BND2BDAuto BND2BD = iota
	// BND2BDPipelined forces the pipelined task-graph reduction.
	BND2BDPipelined
	// BND2BDSequential forces the single-threaded reference reduction
	// (band.Reduce), the numerical oracle of the pipelined path.
	BND2BDSequential
)

func (m BND2BD) String() string {
	switch m {
	case BND2BDAuto:
		return "BND2BDAuto"
	case BND2BDPipelined:
		return "BND2BDPipelined"
	case BND2BDSequential:
		return "BND2BDSequential"
	}
	return fmt.Sprintf("BND2BD(%d)", int(m))
}

// Algorithm selects between direct bidiagonalization and
// R-bidiagonalization.
type Algorithm int

const (
	// AutoAlgorithm applies Chan's operation-count rule: R-bidiagonalize
	// when m ≥ 5n/3, bidiagonalize directly otherwise.
	AutoAlgorithm Algorithm = iota
	// Bidiag always uses the direct tiled bidiagonalization.
	Bidiag
	// RBidiag always performs the QR factorization first.
	RBidiag
)

func (a Algorithm) String() string {
	switch a {
	case AutoAlgorithm:
		return "AutoAlgorithm"
	case Bidiag:
		return "Bidiag"
	case RBidiag:
		return "RBidiag"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Options configures the reduction. The zero value (or a nil pointer)
// selects the defaults of the paper's implementation.
type Options struct {
	// Auto hands plan selection to the model-seeded planner: every
	// zero-valued knob (NB, Tree = Auto, Algorithm = AutoAlgorithm,
	// BND2BDWindow, Fused) is chosen by pricing candidate plans on the
	// machine model, while explicitly set knobs are honored as pins.
	// The resolution is deterministic — AutoPlan returns the concrete
	// Options an Auto run executes, bitwise-identically. Incompatible
	// with Distributed. Service jobs additionally refine Auto plans
	// online from measured throughput (see ServiceConfig.PlanProfiles).
	Auto bool
	// NB is the tile size (default 64; the paper tunes 160 for its
	// hardware).
	NB int
	// Tree is the reduction tree (default Auto).
	Tree Tree
	// Algorithm picks direct or R-bidiagonalization (default: Chan's
	// m ≥ 5n/3 rule).
	Algorithm Algorithm
	// Workers is the number of parallel workers (default GOMAXPROCS).
	Workers int
	// Gamma is the AUTO tree's parallelism target multiplier (default 2).
	Gamma int
	// Distributed, when non-nil, executes the reduction on a grid of
	// in-process distributed-memory nodes instead of the shared-memory
	// worker pool. Tree is then superseded by the paper's hierarchical
	// distributed trees.
	Distributed *DistOptions
	// Gemm tunes the cache blocking of the packed GEMM micro-kernel the
	// tile kernels bottom out in. The zero value selects defaults tuned
	// for tile-scale operands; it rarely needs changing.
	Gemm GemmBlock
	// BND2BD selects the second-stage (band→bidiagonal) implementation:
	// the pipelined task-graph reduction by default, or the sequential
	// reference. The two are bitwise-identical.
	BND2BD BND2BD
	// BND2BDWindow is the column width of the wavefront windows the
	// pipelined BND2BD stage declares its dependences on (both staged and
	// fused); each chase task covers a whole number of windows spanning
	// about two chase steps. 0 selects the default (about n/16, clamped
	// to [32, 512]); narrower windows deepen the pipeline at the cost of
	// finer dependences. Negative values are rejected.
	BND2BDWindow int
	// Fused executes SingularValues as ONE fused task graph: the BND2BD
	// chase segments are emitted into the same DAG as the GE2BND kernels,
	// with cross-stage dependencies instead of a barrier, so the bulge
	// chase overlaps the trailing stage-1 updates. The result is
	// bitwise-identical to the staged path, which stays available (the
	// default) as the oracle. Ignored by GE2BND and SVD — their results
	// are a first-stage artifact — and ineffective under
	// BND2BD = BND2BDSequential, which forces the staged reference.
	Fused bool
}

// GemmBlock holds the cache-block sizes of the packed GEMM: panels of A
// are MC×KC, panels of B KC×NC (in elements). Zero fields select the
// defaults. Every worker uses the same blocking, which keeps parallel and
// distributed results bitwise-identical to the sequential reference.
type GemmBlock struct {
	MC, KC, NC int
}

// DistOptions configures distributed execution.
type DistOptions struct {
	// Nodes is the number of in-process nodes (default 4). Ignored when
	// an explicit grid is given.
	Nodes int
	// GridRows and GridCols select an explicit process grid. When zero,
	// a near-square grid is derived from Nodes (or an N×1 grid for
	// tall-skinny inputs with m ≥ 2n).
	GridRows, GridCols int
	// WorkersPerNode is each node's worker pool size (default: Workers
	// divided across the nodes, at least 1).
	WorkersPerNode int
}

// DistStats reports the measured behaviour of a distributed execution.
type DistStats struct {
	// Nodes, GridRows and GridCols describe the machine that ran.
	Nodes, GridRows, GridCols int
	// CommCount and CommVolume are the deduplicated inter-node transfers
	// and their modeled byte volume — directly comparable to the
	// prediction of the distributed simulator on the same graph.
	CommCount  int
	CommVolume float64
	// PayloadBytes is the serialized tile data actually moved.
	PayloadBytes int64
	// Wall and Utilization describe the execution itself.
	Wall        time.Duration
	Utilization float64
}

func (o *Options) withDefaults() (Options, error) {
	var v Options
	if o != nil {
		v = *o
	}
	if v.NB <= 0 {
		v.NB = 64
	}
	if v.Workers <= 0 {
		v.Workers = runtime.GOMAXPROCS(0)
	}
	if v.Gamma <= 0 {
		v.Gamma = 2
	}
	if v.BND2BDWindow < 0 {
		return v, fmt.Errorf("bidiag: BND2BDWindow must be ≥ 0 (0 selects the default), got %d", v.BND2BDWindow)
	}
	return v, nil
}

// Dense is a column-major dense matrix, the package's input type.
type Dense struct {
	inner *nla.Matrix
}

// NewDense allocates a zeroed m×n matrix.
func NewDense(m, n int) *Dense {
	return &Dense{inner: nla.NewMatrix(m, n)}
}

// NewDenseFromColMajor wraps column-major data (a[i + j*m] is element
// (i, j)) without copying; len(data) must be at least m*n.
func NewDenseFromColMajor(m, n int, data []float64) (*Dense, error) {
	if len(data) < m*n {
		return nil, fmt.Errorf("bidiag: need %d elements, got %d", m*n, len(data))
	}
	return &Dense{inner: nla.FromColMajor(m, n, m, data)}, nil
}

// Rows returns the row count.
func (d *Dense) Rows() int { return d.inner.Rows }

// Cols returns the column count.
func (d *Dense) Cols() int { return d.inner.Cols }

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.inner.At(i, j) }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.inner.Set(i, j, v) }

// Band is the band-bidiagonal result of GE2BND.
type Band struct {
	b *band.Matrix
	// UsedRBidiag reports whether the R-bidiagonalization path ran.
	UsedRBidiag bool
	// TasksExecuted is the number of kernel tasks in the DAG.
	TasksExecuted int
	// Dist holds measured communication statistics when the reduction ran
	// distributed (Options.Distributed non-nil); nil otherwise.
	Dist *DistStats

	// workers, bnd2bd and window carry the Options the band was produced
	// under, so SingularValues routes its BND2BD stage the same way.
	workers int
	bnd2bd  BND2BD
	window  int
}

// N returns the order of the band matrix.
func (b *Band) N() int { return b.b.N }

// Bandwidth returns the number of stored superdiagonals.
func (b *Band) Bandwidth() int { return b.b.KU }

// At returns element (i, j) of the band matrix (zero outside the band).
func (b *Band) At(i, j int) float64 { return b.b.At(i, j) }

// SingularValues finishes the pipeline on the band: BND2BD bulge chasing
// followed by the bidiagonal QR iteration. The BND2BD stage runs as a
// pipelined task graph (a stage-2 pipeline.Plan on the pool executor)
// with the worker count and wavefront window the band was produced with,
// unless the producing Options forced the sequential reference; either
// way the outcome is bitwise-identical.
func (b *Band) SingularValues() ([]float64, error) {
	return b.singularValuesCtx(context.Background())
}

func (b *Band) singularValuesCtx(ctx context.Context) ([]float64, error) {
	var r *band.Matrix
	if b.bnd2bd == BND2BDSequential {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r = band.Reduce(b.b)
	} else {
		p := pipeline.BuildBND2BD(b.b, b.window)
		if _, err := pipeline.RunCtx(ctx, p, pipeline.Pool{Workers: max(b.workers, 1)}); err != nil {
			return nil, err
		}
		r = p.Bidiagonal()
	}
	d, e := r.Bidiagonal()
	return bdsqr.SingularValues(d, e)
}

// GE2BND reduces a to band-bidiagonal form using the tiled BIDIAG or
// R-BIDIAG algorithm. The input matrix is not modified. Matrices with
// m < n are reduced through their transpose (singular values are
// unaffected), and the Algorithm choice applies to the transposed —
// m ≥ n — problem: R-bidiagonalization composes with the implicit
// transpose, so Algorithm = RBidiag is valid for every nonempty shape
// and QR-factorizes the (possibly transposed) input first.
func GE2BND(a *Dense, o *Options) (*Band, error) {
	opts, src, treeKind, _, err := prepare(a, o)
	if err != nil {
		return nil, err
	}
	plan, ex, err := buildPlan(src, opts, treeKind, nil, false)
	if err != nil {
		return nil, err
	}
	rep, err := pipeline.Run(plan, ex)
	if err != nil {
		return nil, err
	}
	return &Band{
		b:             plan.Tiles.ExtractBand(plan.Tiles.NB),
		UsedRBidiag:   plan.UsedRBidiag,
		TasksExecuted: rep.Tasks,
		Dist:          distStatsOf(rep),
		workers:       opts.Workers,
		bnd2bd:        opts.BND2BD,
		window:        opts.BND2BDWindow,
	}, nil
}

// distPlan resolves the node grid and per-node worker count of a
// distributed run.
func distPlan(d *DistOptions, opts Options, m, n int) (dist.Grid, int, error) {
	var grid dist.Grid
	switch {
	case d.GridRows > 0 && d.GridCols > 0:
		grid = dist.Grid{R: d.GridRows, C: d.GridCols}
	case d.GridRows != 0 || d.GridCols != 0:
		return dist.Grid{}, 0, fmt.Errorf("bidiag: invalid grid %dx%d; both dimensions must be positive (or zero to derive one)",
			d.GridRows, d.GridCols)
	default:
		nodes := d.Nodes
		if nodes <= 0 {
			nodes = 4
		}
		if m >= 2*n {
			grid = dist.TallSkinnyGrid(nodes)
		} else {
			grid = dist.SquareGrid(nodes)
		}
	}
	wpn := d.WorkersPerNode
	if wpn <= 0 {
		wpn = max(1, opts.Workers/grid.Nodes())
	}
	return grid, wpn, grid.Validate()
}

// ErrNonFinite is returned (wrapped, match it with errors.Is) by
// SingularValues, SVD, GE2BND and Service jobs when the input matrix
// holds a NaN or an infinite entry: no singular value is defined for
// it, so the input is rejected before any work is scheduled.
var ErrNonFinite = errors.New("bidiag: matrix has a non-finite entry")

// checkFinite returns ErrNonFinite, naming the first offending entry,
// when a holds a NaN or ±Inf.
func checkFinite(a *nla.Matrix) error {
	for j := 0; j < a.Cols; j++ {
		for i, v := range a.Data[j*a.LD : j*a.LD+a.Rows] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: a(%d, %d) = %v", ErrNonFinite, i, j, v)
			}
		}
	}
	return nil
}

// prepare is the shared prologue of every public entry point: option
// validation (Validate is the one consolidated checking path), the
// non-finite input scan, planner resolution of Options.Auto,
// reduction-tree resolution, the implicit transpose of wide inputs
// (m < n), and the empty-matrix check.
func prepare(a *Dense, o *Options) (opts Options, src *nla.Matrix, treeKind trees.Kind, transposed bool, err error) {
	opts, err = o.Validate()
	if err != nil {
		return opts, nil, 0, false, err
	}
	if err := checkFinite(a.inner); err != nil {
		return opts, nil, 0, false, err
	}
	src = a.inner
	if src.Rows < src.Cols {
		src = src.Transpose()
		transposed = true
	}
	if src.Rows == 0 || src.Cols == 0 {
		return opts, nil, 0, false, errors.New("bidiag: empty matrix")
	}
	if opts.Auto {
		// AutoPlan normalizes m ≥ n itself, so passing the original shape
		// resolves identically to the transposed one.
		opts, err = AutoPlan(src.Rows, src.Cols, o)
		if err != nil {
			return opts, nil, 0, false, err
		}
	}
	treeKind, err = opts.Tree.kind()
	if err != nil {
		return opts, nil, 0, false, err
	}
	return opts, src, treeKind, transposed, nil
}

// buildSpec resolves opts into the shared-memory pipeline Spec — the
// geometry, tiled data, tree configuration and fusion choice of one
// reduction. The service layer reuses it to pack several jobs into one
// gang graph (via Spec.Graph), which is why it is separate from
// executor selection.
func buildSpec(src *nla.Matrix, opts Options, treeKind trees.Kind, rec *core.Recorder, fuse bool) pipeline.Spec {
	m, n := src.Rows, src.Cols
	useR := opts.Algorithm == RBidiag ||
		(opts.Algorithm == AutoAlgorithm && 3*m >= 5*n)
	blocking := nla.Blocking(opts.Gemm)
	if rec != nil {
		rec.Blocking = blocking
	}
	return pipeline.Spec{
		Shape:   core.ShapeOf(m, n, opts.NB),
		Data:    tile.FromDense(src, opts.NB),
		Config:  core.Config{Tree: treeKind, Gamma: opts.Gamma, Cores: opts.Workers, Recorder: rec, Blocking: blocking},
		RBidiag: useR,
		Fused:   fuse,
		Window:  opts.BND2BDWindow,
	}
}

// buildPlan resolves opts into a pipeline Plan and the Executor that
// will run it — the single place engine selection happens. With fuse the
// plan carries the BND2BD stage in the same graph (SingularValues'
// fused path); the shape and engine logic are identical either way.
func buildPlan(src *nla.Matrix, opts Options, treeKind trees.Kind, rec *core.Recorder, fuse bool) (*pipeline.Plan, pipeline.Executor, error) {
	spec := buildSpec(src, opts, treeKind, rec, fuse)
	var ex pipeline.Executor = pipeline.Pool{Workers: opts.Workers}
	if d := opts.Distributed; d != nil {
		grid, wpn, err := distPlan(d, opts, src.Rows, src.Cols)
		if err != nil {
			return nil, nil, err
		}
		tc := dist.AutoDefaults(spec.Shape, grid, wpn)
		tc.Gamma = opts.Gamma
		cfg := tc.Configure()
		cfg.Recorder = rec
		cfg.Blocking = nla.Blocking(opts.Gemm)
		spec.Config = cfg
		ex = pipeline.OwnerCompute{Grid: grid, WorkersPerNode: wpn, Replica: pipeline.Replica(spec)}
	}
	return pipeline.Build(spec), ex, nil
}

// distStatsOf converts an executor report's distributed statistics into
// the public DistStats (nil for shared-memory runs).
func distStatsOf(rep *pipeline.Report) *DistStats {
	if rep.Dist == nil {
		return nil
	}
	return &DistStats{
		Nodes:        rep.Dist.Nodes,
		GridRows:     rep.GridRows,
		GridCols:     rep.GridCols,
		CommCount:    rep.Dist.CommCount,
		CommVolume:   rep.Dist.CommVolume,
		PayloadBytes: rep.Dist.PayloadBytes,
		Wall:         rep.Dist.Wall,
		Utilization:  rep.Dist.Utilization,
	}
}

// SingularValues returns the singular values of a in descending order,
// computed by the full GE2BND + BND2BD + BD2VAL pipeline. With
// Options.Fused the first two stages run as one fused task graph —
// the bulge chase overlaps the trailing GE2BND updates — otherwise they
// run staged with a barrier in between; the two paths are
// bitwise-identical.
func SingularValues(a *Dense, o *Options) ([]float64, error) {
	return SingularValuesCtx(context.Background(), a, o)
}

// SingularValuesCtx is SingularValues under a context: a cancelled ctx
// stops scheduling new kernel tasks promptly (in-flight tiles finish)
// and returns ctx.Err(). Distributed runs honor cancellation at
// admission only.
func SingularValuesCtx(ctx context.Context, a *Dense, o *Options) ([]float64, error) {
	opts, src, treeKind, _, err := prepare(a, o)
	if err != nil {
		return nil, err
	}
	fuse := opts.Fused && opts.BND2BD != BND2BDSequential
	plan, ex, err := buildPlan(src, opts, treeKind, nil, fuse)
	if err != nil {
		return nil, err
	}
	if _, err := pipeline.RunCtx(ctx, plan, ex); err != nil {
		return nil, err
	}
	if !fuse {
		// Staged: extract the band and finish through the same stage-2
		// dispatch every Band uses.
		b := &Band{
			b:       plan.Tiles.ExtractBand(plan.Tiles.NB),
			workers: opts.Workers,
			bnd2bd:  opts.BND2BD,
			window:  opts.BND2BDWindow,
		}
		return b.singularValuesCtx(ctx)
	}
	d, e := plan.Bidiagonal().Bidiagonal()
	return bdsqr.SingularValues(d, e)
}
