package pipeline

import (
	"context"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
)

// Spec describes the reduction plan to build. The zero Window selects
// band.DefaultWindow; Data may be nil for simulation-only builds (the
// graph then carries weights and dependences but no kernels).
type Spec struct {
	// Graph, when non-nil, receives the plan's tasks instead of a fresh
	// graph. Several independent plans built into ONE graph execute as a
	// gang: their tasks interleave on the same wavefront, which is how
	// the serving layer batches many small reductions (the plans touch
	// disjoint handles, so dependence inference keeps them independent).
	Graph *sched.Graph
	// Shape is the input's tile geometry (M ≥ N; callers transpose first).
	Shape core.Shape
	// Data is the tiled input, consumed in place; nil builds the DAG for
	// analysis or simulation only.
	Data *tile.Matrix
	// Config selects the reduction trees, owner mapping, recorder and GEMM
	// blocking of the GE2BND stage.
	Config core.Config
	// RBidiag selects R-BIDIAG (QR first) instead of direct BIDIAG.
	RBidiag bool
	// Fused appends the BANDCP adapters and the BND2BD chase segments to
	// the same graph, removing the inter-stage barrier.
	Fused bool
	// Window is the BND2BD wavefront window width (≤ 0: default).
	Window int
}

// Stage reports one logical stage of a built plan.
type Stage struct {
	Name  string
	Tasks int
}

// Plan is a built task graph plus the bookkeeping needed to extract its
// results after execution.
type Plan struct {
	Graph *sched.Graph
	// Stages lists the logical stages in submission order; their task
	// counts sum to the number of tasks this plan added to Graph (all of
	// them, unless the plan was built into a shared gang graph).
	Stages []Stage
	// Tiles is the tile matrix holding the stage-1 band-bidiagonal result
	// (the square R-factor matrix under R-BIDIAG); nil in simulation-only
	// builds or stage-2-only plans.
	Tiles *tile.Matrix
	// Shape is the geometry of Tiles.
	Shape core.Shape
	// UsedRBidiag reports whether the R-BIDIAG path was built.
	UsedRBidiag bool

	finish func() *band.Matrix
}

// Build constructs the plan's task graph: the GE2BND stage always, plus —
// when spec.Fused — the cross-stage adapters and the BND2BD chase
// segments, all in one sched.Graph so dependence inference spans the
// stage boundary.
func Build(spec Spec) *Plan {
	g := spec.Graph
	if g == nil {
		g = sched.NewGraph()
	}
	mark0 := len(g.Tasks)
	rsh := spec.Shape
	data := spec.Data
	var tap *core.BandTap
	if spec.RBidiag {
		rsh, data, tap = core.BuildRBidiag(g, spec.Shape, spec.Data, spec.Config)
	} else {
		tap = core.BuildBidiag(g, spec.Shape, spec.Data, spec.Config)
	}
	p := &Plan{Graph: g, Tiles: data, Shape: rsh, UsedRBidiag: spec.RBidiag}
	p.Stages = append(p.Stages, Stage{Name: "GE2BND", Tasks: len(g.Tasks) - mark0})
	if !spec.Fused {
		return p
	}

	n := min(rsh.M, rsh.N)
	target := band.NewTarget(n, rsh.NB)
	width := band.WindowWidth(n, spec.Window)
	win := target.WindowHandles(g, width)
	mark := len(g.Tasks)
	buildAdapters(g, tap, target, win, width, n)
	p.Stages = append(p.Stages, Stage{Name: "BANDCP", Tasks: len(g.Tasks) - mark})
	mark = len(g.Tasks)
	p.finish = target.BuildSegments(g, width, win)
	p.Stages = append(p.Stages, Stage{Name: "BND2BD", Tasks: len(g.Tasks) - mark})
	return p
}

// Replica returns the OwnerCompute.Replica builder of spec: every call
// builds the same plan over its own copy of spec.Data, without the
// Recorder, which only the rank holding the caller's plan feeds. Each
// copy is taken when the builder runs; dist.Execute runs it before any
// rank starts, while spec.Data is still the unreduced input.
func Replica(spec Spec) func() *sched.Graph {
	spec.Graph = nil
	spec.Config.Recorder = nil
	return func() *sched.Graph {
		s := spec
		if s.Data != nil {
			s.Data = s.Data.Clone()
		}
		return Build(s).Graph
	}
}

// BuildBND2BD returns a stage-2-only plan: the pipelined bulge-chase
// reduction of an existing band matrix (window ≤ 0: default width). The
// input is not modified.
func BuildBND2BD(b *band.Matrix, window int) *Plan {
	g := sched.NewGraph()
	finish := band.BuildReduceGraph(g, b, window)
	return &Plan{
		Graph:  g,
		Stages: []Stage{{Name: "BND2BD", Tasks: len(g.Tasks)}},
		finish: finish,
	}
}

// Run executes the plan's graph on the given executor and returns its
// report. The numerical outcome is independent of the executor. A
// kernel panic during execution is recovered and returned as an error
// naming the kernel kind.
func Run(p *Plan, ex Executor) (*Report, error) {
	return RunCtx(context.Background(), p, ex)
}

// RunCtx is Run under a context: a cancelled ctx stops the execution
// (promptly on the shared-memory engines, at admission on the
// distributed engine) and returns ctx.Err().
func RunCtx(ctx context.Context, p *Plan, ex Executor) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return ex.Execute(ctx, p.Graph)
}

// Bidiagonal returns the reduced bidiagonal matrix of a fused or
// stage-2-only plan. Valid only after the plan has been executed; it
// panics on a plan without a BND2BD stage.
func (p *Plan) Bidiagonal() *band.Matrix {
	if p.finish == nil {
		panic("pipeline: plan has no BND2BD stage")
	}
	return p.finish()
}

// buildAdapters emits one BANDCP task per band tile of the stage-1
// result: the task reads exactly the sub-tile regions the band occupies
// (so it becomes runnable when the last stage-1 writer of those regions
// retires, not when the whole stage drains) and writes the band columns
// it covers into the second stage's working storage, declaring
// read-write accesses on the column-window handles the chase segments
// read: an adapter writes only part of a window, so under distributed
// memory it must first receive the rest from the window's last writer.
func buildAdapters(g *sched.Graph, tap *core.BandTap, target *band.Target, win []*sched.Handle, width, n int) {
	sh := tap.Shape
	nb := sh.NB
	for k := 0; k < sh.Q; k++ {
		// Diagonal tile (k, k): band elements (i, j) with i ≤ j, both in
		// [k·nb, jhi) — the tile's upper triangle including the diagonal.
		jlo, jhi := k*nb, min(n, (k+1)*nb)
		var run func(*nla.Workspace)
		if tap.Data != nil {
			tl := tap.Data.Tile(k, k)
			run = func(*nla.Workspace) {
				for c := 0; c < jhi-jlo; c++ {
					for r := 0; r <= c; r++ {
						target.Set(jlo+r, jlo+c, tl.At(r, c))
					}
				}
			}
		}
		g.AddTask(kernels.BANDCPKind, tap.Owner(k, k), 0, 0, run,
			adapterAccesses(tap.DiagAccesses(k), win, jlo, jhi, width)...,
		).SetCoords(k, k, -2)

		if k+1 >= sh.Q {
			continue
		}
		// Superdiagonal tile (k, k+1): band elements (i, j) with
		// j − i ≤ nb, i.e. local (r, c) with c ≤ r — the tile's lower
		// triangle including its diagonal. Rows of tile k are full
		// (k < Q−1 ≤ P−1), columns clamp at the matrix edge.
		slo, shi := (k+1)*nb, min(n, (k+1)*nb+sh.ColsOf(k+1))
		var srun func(*nla.Workspace)
		if tap.Data != nil {
			tl := tap.Data.Tile(k, k+1)
			base := k * nb
			srun = func(*nla.Workspace) {
				for c := 0; c < shi-slo; c++ {
					for r := c; r < nb; r++ {
						target.Set(base+r, slo+c, tl.At(r, c))
					}
				}
			}
		}
		g.AddTask(kernels.BANDCPKind, tap.Owner(k, k+1), 0, 0, srun,
			adapterAccesses(tap.SuperAccesses(k), win, slo, shi, width)...,
		).SetCoords(k, k+1, -2)
	}
}

// adapterAccesses appends read-write accesses on the window handles
// covering band columns [jlo, jhi) to an adapter's tile-region reads.
func adapterAccesses(reads []sched.Access, win []*sched.Handle, jlo, jhi, width int) []sched.Access {
	accs := reads
	for w := jlo / width; w <= (jhi-1)/width; w++ {
		accs = append(accs, sched.RW(win[w]))
	}
	return accs
}
