package sched

import (
	"container/heap"
	"context"
	"fmt"

	"github.com/tiled-la/bidiag/internal/nla"
)

// RunSafe executes the task's kernel on the given workspace, converting a
// kernel panic into an error naming the kernel kind. Every executor —
// sequential, runtime, owner-compute — runs tasks through it, so one bad
// tile fails its own graph instead of the whole process.
func (t *Task) RunSafe(ws *nla.Workspace) (err error) {
	if t.Run == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: %s kernel %s panicked: %v", t.Kind, t.Name(), r)
		}
	}()
	t.Run(ws)
	return nil
}

// RunSequential executes every task in submission order, which is a valid
// schedule by construction. It is the numerical reference all parallel
// executions are compared against. A panicking kernel is recovered and
// returned as an error; the remaining tasks do not run.
func (g *Graph) RunSequential() error {
	return g.RunSequentialCtx(context.Background())
}

// RunSequentialCtx is RunSequential under a context: when ctx is cancelled
// no further tasks start and ctx.Err() is returned.
func (g *Graph) RunSequentialCtx(ctx context.Context) error {
	ws := g.NewWorkspace()
	for _, t := range g.Tasks {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := g.RunTask(t, ws, 0); err != nil {
			return err
		}
	}
	return nil
}

// RunParallel executes the graph on a pool of `workers` goroutines,
// dispatching ready tasks in order of decreasing bottom-level priority
// (ties broken by submission order). The data dependencies guarantee that
// the floating-point result is identical to RunSequential: every pair of
// conflicting accesses to a handle is ordered by an edge, so each datum
// sees the same sequence of kernels regardless of the schedule.
//
// A panicking kernel fails the run — dispatch stops, in-flight tasks
// finish, and the first panic is returned as an error — instead of
// killing the process.
func (g *Graph) RunParallel(workers int) error {
	return g.RunParallelCtx(context.Background(), workers)
}

// RunParallelCtx is RunParallel under a context: when ctx is cancelled
// dispatch stops, in-flight tasks finish, and ctx.Err() is returned. The
// graph runs as the only job of a private Runtime; workers ≤ 1 runs
// RunSequentialCtx instead.
func (g *Graph) RunParallelCtx(ctx context.Context, workers int) error {
	if workers <= 1 {
		return g.RunSequentialCtx(ctx)
	}
	rt := NewRuntime(workers)
	defer rt.Close()
	h, err := rt.Submit(ctx, g, JobOptions{})
	if err != nil {
		return err
	}
	return h.Wait()
}

// WeightTime values a task at its Table I weight; it is the default
// duration function for critical-path analysis.
func WeightTime(t *Task) float64 { return t.Weight }

// FlopsTime values a task at its modeled flop count.
func FlopsTime(t *Task) float64 { return t.Flops }

// ComputeBottomLevels assigns each task its bottom level — the length of
// the longest downstream path including itself — under the given duration
// function, and returns the overall maximum, i.e. the critical path of the
// DAG on unbounded resources. On a banded graph (SetScheduleBands) each
// task's priority is then raised by a per-band offset that strictly
// dominates the bottom levels, so earlier bands outrank later ones in the
// executors' ready queues; the returned critical path stays unbiased.
func (g *Graph) ComputeBottomLevels(timeOf func(*Task) float64) float64 {
	cp := 0.0
	for i := len(g.Tasks) - 1; i >= 0; i-- {
		t := g.Tasks[i]
		mx := 0.0
		for _, s := range t.succs {
			if s.prio > mx {
				mx = s.prio
			}
		}
		t.prio = mx + timeOf(t)
		if t.prio > cp {
			cp = t.prio
		}
	}
	if len(g.bandMarks) > 1 {
		span := cp + 1
		band, next := 0, g.bandMarks[0]
		for i, t := range g.Tasks {
			for i >= next {
				band++
				next = g.bandMarks[band]
			}
			t.prio += float64(len(g.bandMarks)-1-band) * span
		}
	}
	return cp
}

// CriticalPath returns the longest weighted path through the DAG, the
// execution time on unbounded resources with zero communication cost.
// This is the quantity tabulated in Section IV of the paper.
func (g *Graph) CriticalPath(timeOf func(*Task) float64) float64 {
	return g.ComputeBottomLevels(timeOf)
}

// SimResult reports a virtual-time simulation.
type SimResult struct {
	Makespan    float64
	BusyTime    float64 // Σ task durations actually scheduled
	Utilization float64 // BusyTime / (workers × Makespan)
	Tasks       int
}

// SimulateFixed performs event-driven list scheduling of the DAG on
// `workers` identical virtual cores: whenever a core is free, the ready
// task with the greatest bottom-level priority starts. It returns the
// makespan in the units of timeOf. With workers → ∞ the makespan equals
// CriticalPath.
func (g *Graph) SimulateFixed(workers int, timeOf func(*Task) float64) SimResult {
	if workers < 1 {
		workers = 1
	}
	g.resetExecState()
	g.ComputeBottomLevels(timeOf)

	var ready ReadyQueue
	for _, t := range g.Tasks {
		if t.npred == 0 {
			ready = append(ready, t)
		}
	}
	heap.Init(&ready)

	var running eventHeap
	free := workers
	now := 0.0
	busy := 0.0
	done := 0
	for done < len(g.Tasks) {
		for free > 0 && len(ready) > 0 {
			t := heap.Pop(&ready).(*Task)
			d := timeOf(t)
			busy += d
			heap.Push(&running, event{at: now + d, task: t})
			free--
		}
		if len(running) == 0 {
			break // defensive: no runnable work (should not happen on a DAG)
		}
		ev := heap.Pop(&running).(event)
		now = ev.at
		free++
		done++
		for _, s := range ev.task.succs {
			s.npred--
			if s.npred == 0 {
				heap.Push(&ready, s)
			}
		}
	}
	util := 0.0
	if now > 0 {
		util = busy / (float64(workers) * now)
	}
	return SimResult{Makespan: now, BusyTime: busy, Utilization: util, Tasks: done}
}

// ReadyQueue is a container/heap max-heap on (bottom level, −ID): the
// most critical task first, earlier submission breaking ties for
// determinism. Every executor and simulator orders its ready tasks so.
type ReadyQueue []*Task

func (h ReadyQueue) Len() int { return len(h) }
func (h ReadyQueue) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].ID < h[j].ID
}
func (h ReadyQueue) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *ReadyQueue) Push(x any)   { *h = append(*h, x.(*Task)) }
func (h *ReadyQueue) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

type event struct {
	at   float64
	task *Task
}

// eventHeap is a min-heap on completion time, ties broken by task ID.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].task.ID < h[j].task.ID
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
