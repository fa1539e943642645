package pipeline

import (
	"context"

	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/sched"
)

// Executor runs a task graph to completion. The four implementations —
// Sequential, Pool, OwnerCompute, Shared — are the only engine dispatch
// in the library: every public entry point builds a Plan and hands it to
// one of these through Run or RunCtx.
type Executor interface {
	// Name identifies the engine in reports and traces.
	Name() string
	// Execute runs the whole graph and reports on the execution. The
	// floating-point result must be bitwise-identical to Sequential. A
	// cancelled ctx stops the execution and returns ctx.Err(); a
	// panicking kernel is recovered and returned as an error naming the
	// kernel kind — one bad tile fails the call, not the process.
	Execute(ctx context.Context, g *sched.Graph) (*Report, error)
}

// Report summarizes one plan execution.
type Report struct {
	// Executor is the engine that ran.
	Executor string
	// Tasks is the number of tasks executed.
	Tasks int
	// Dist carries the measured communication statistics of an
	// OwnerCompute run (nil otherwise), plus the grid that ran.
	Dist               *dist.Result
	GridRows, GridCols int
}

// Sequential executes tasks in submission order: the numerical reference
// every parallel engine is compared against.
type Sequential struct{}

// Name implements Executor.
func (Sequential) Name() string { return "sequential" }

// Execute implements Executor.
func (Sequential) Execute(ctx context.Context, g *sched.Graph) (*Report, error) {
	if err := g.RunSequentialCtx(ctx); err != nil {
		return nil, err
	}
	return &Report{Executor: "sequential", Tasks: len(g.Tasks)}, nil
}

// Pool executes the graph on a private shared-memory worker pool with
// bottom-level priority scheduling (sched.Graph.RunParallelCtx). Workers
// ≤ 1 degenerates to the sequential order (same result either way).
type Pool struct {
	Workers int
}

// Name implements Executor.
func (p Pool) Name() string { return "pool" }

// Execute implements Executor.
func (p Pool) Execute(ctx context.Context, g *sched.Graph) (*Report, error) {
	if err := g.RunParallelCtx(ctx, p.Workers); err != nil {
		return nil, err
	}
	return &Report{Executor: "pool", Tasks: len(g.Tasks)}, nil
}

// Shared executes the graph on a process-wide sched.Runtime instead of a
// private pool: the graph becomes one more in-flight job whose tasks
// interleave with every other job's on the shared workers. This is the
// serving engine — internal/serve admits every job through it.
type Shared struct {
	Runtime *sched.Runtime
	// Weight is the job's fair-share weight (≤ 0 means 1).
	Weight float64
}

// Name implements Executor.
func (Shared) Name() string { return "shared" }

// Execute implements Executor.
func (s Shared) Execute(ctx context.Context, g *sched.Graph) (*Report, error) {
	h, err := s.Runtime.Submit(ctx, g, sched.JobOptions{Weight: s.Weight})
	if err != nil {
		return nil, err
	}
	if err := h.Wait(); err != nil {
		return nil, err
	}
	return &Report{Executor: "shared", Tasks: len(g.Tasks)}, nil
}

// OwnerCompute executes the graph on a grid of in-process
// distributed-memory ranks: every task runs on the rank owning its
// output tile and cross-rank dependencies travel as explicit messages
// (dist.Execute). Cancellation is honored at admission only — a
// distributed run, once launched, always drains its messages.
type OwnerCompute struct {
	Grid           dist.Grid
	WorkersPerNode int
	// Replica builds the graph of every rank but 0, each over its own
	// copy of the input (see Replica); the executed graph then ends
	// holding the gathered result. Nil runs all ranks on the one graph.
	Replica func() *sched.Graph
}

// Name implements Executor.
func (OwnerCompute) Name() string { return "owner-compute" }

// Execute implements Executor.
func (d OwnerCompute) Execute(ctx context.Context, g *sched.Graph) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := dist.Execute(g, dist.Options{Grid: d.Grid, WorkersPerNode: d.WorkersPerNode, Replica: d.Replica})
	if err != nil {
		return nil, err
	}
	return &Report{
		Executor: "owner-compute",
		Tasks:    res.TasksRun,
		Dist:     res,
		GridRows: d.Grid.R,
		GridCols: d.Grid.C,
	}, nil
}
