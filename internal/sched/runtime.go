package sched

import (
	"container/heap"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/tiled-la/bidiag/internal/nla"
)

// ErrRuntimeClosed is returned by Runtime.Submit after Close.
var ErrRuntimeClosed = errors.New("sched: runtime closed")

// Runtime is the shared-memory worker pool: it executes MANY task graphs
// concurrently, and RunParallel runs a single graph as the only job of a
// private one. Each Submit admits one graph as a job with its own ready heap; the
// shared workers pick across jobs by weighted fair share (smallest virtual
// time first) and within a job by bottom-level priority, so several small
// DAGs keep the machine saturated where one would not — the many-graph
// regime the tiled-algorithms literature argues dataflow runtimes are for.
//
// The pool is elastic in workspace, not in threads: each worker owns one
// scratch arena that grows to the largest declared requirement among the
// jobs it actually runs, so admitting a bigger job never reallocates
// per-task and mixed-size jobs share workers without waste.
//
// Isolation guarantees:
//
//   - A panicking kernel fails its OWN job (Wait returns the error naming
//     the kernel kind); every other job, and the pool, keep running.
//   - Cancelling a job's context stops dispatching its tasks promptly;
//     in-flight tasks finish and Wait returns ctx.Err().
//
// A Graph must be in at most one execution at a time (its dependency
// counters are live state); resubmitting a finished graph is allowed.
type Runtime struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers int
	jobs    []*JobHandle // admitted and unfinished, in admission order
	closed  bool
	wg      sync.WaitGroup

	// wsBytes[w] is worker w's current arena size in bytes, maintained
	// with atomic stores so WorkspaceBytes can be scraped without
	// touching rt.mu.
	wsBytes []int64
}

// JobOptions tunes one Submit.
type JobOptions struct {
	// Weight is the job's fair-share weight (default 1): a weight-2 job
	// receives twice the worker pickups of a weight-1 job under
	// contention.
	Weight float64
}

// JobHandle tracks one submitted graph.
type JobHandle struct {
	rt  *Runtime
	g   *Graph
	ctx context.Context

	ready    ReadyQueue
	inflight int // dispatched, not yet finished
	undone   int // not yet finished (dispatched or not)
	vtime    float64
	weight   float64

	stopped bool // no further dispatch: cancelled or failed
	err     error
	done    chan struct{}
}

// NewRuntime starts a shared pool of the given size (minimum 1). The pool
// runs until Close.
func NewRuntime(workers int) *Runtime {
	if workers < 1 {
		workers = 1
	}
	rt := &Runtime{workers: workers, wsBytes: make([]int64, workers)}
	rt.cond = sync.NewCond(&rt.mu)
	for w := 0; w < workers; w++ {
		rt.wg.Add(1)
		go rt.worker(w)
	}
	return rt
}

// Workers returns the pool size.
func (rt *Runtime) Workers() int { return rt.workers }

// WorkspaceBytes returns the total bytes currently held by the workers'
// scratch arenas — the pool's resident numerical footprint beyond the
// matrices themselves.
func (rt *Runtime) WorkspaceBytes() int64 {
	var n int64
	for w := range rt.wsBytes {
		n += atomic.LoadInt64(&rt.wsBytes[w])
	}
	return n
}

// InFlight returns the number of admitted, unfinished jobs.
func (rt *Runtime) InFlight() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.jobs)
}

// Submit admits a graph for execution and returns immediately. The job's
// tasks interleave with every other in-flight job's on the shared
// workers. A nil ctx means context.Background().
func (rt *Runtime) Submit(ctx context.Context, g *Graph, opt JobOptions) (*JobHandle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	w := opt.Weight
	if w <= 0 {
		w = 1
	}
	h := &JobHandle{rt: rt, g: g, ctx: ctx, weight: w, done: make(chan struct{})}
	g.resetExecState()
	g.ComputeBottomLevels(WeightTime)
	for _, t := range g.Tasks {
		if t.npred == 0 {
			h.ready = append(h.ready, t)
		}
	}
	heap.Init(&h.ready)
	h.undone = len(g.Tasks)

	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, ErrRuntimeClosed
	}
	if err := ctx.Err(); err != nil {
		rt.mu.Unlock()
		h.err = err
		close(h.done)
		return h, nil
	}
	if h.undone == 0 {
		rt.mu.Unlock()
		close(h.done)
		return h, nil
	}
	// A newcomer starts at the smallest in-flight virtual time: it gets a
	// fair share immediately without being owed the whole past.
	for i, j := range rt.jobs {
		if i == 0 || j.vtime < h.vtime {
			h.vtime = j.vtime
		}
	}
	rt.jobs = append(rt.jobs, h)
	rt.cond.Broadcast()
	rt.mu.Unlock()

	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				rt.mu.Lock()
				if !h.finishedLocked() {
					h.stopLocked(ctx.Err())
					rt.finishIfDoneLocked(h)
				}
				rt.mu.Unlock()
			case <-h.done:
			}
		}()
	}
	return h, nil
}

// Wait blocks until the job finishes and returns its error: nil on
// success, ctx.Err() after a cancellation, or the first kernel panic.
func (h *JobHandle) Wait() error {
	<-h.done
	return h.err
}

// Done returns a channel closed when the job finishes.
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Stopped reports whether the job no longer dispatches tasks: finished,
// failed, or cancelled (in-flight tasks may still be draining). Tests and
// monitors use it to observe a cancellation deterministically.
func (h *JobHandle) Stopped() bool {
	h.rt.mu.Lock()
	defer h.rt.mu.Unlock()
	return h.stopped || h.finishedLocked()
}

// Tasks returns the size of the submitted graph.
func (h *JobHandle) Tasks() int { return len(h.g.Tasks) }

// stopLocked abandons all undispatched work with the given cause.
// Callers hold rt.mu.
func (h *JobHandle) stopLocked(err error) {
	if h.stopped {
		return
	}
	h.stopped = true
	h.err = err
	h.undone -= len(h.ready)
	h.ready = h.ready[:0]
}

// finishedLocked reports whether the job has already been retired.
func (h *JobHandle) finishedLocked() bool {
	select {
	case <-h.done:
		return true
	default:
		return false
	}
}

// finishIfDoneLocked retires the job when no work remains: all tasks
// finished, or the job is stopped and its in-flight tasks drained.
func (rt *Runtime) finishIfDoneLocked(h *JobHandle) {
	if h.undone > 0 && !(h.stopped && h.inflight == 0) {
		return
	}
	if h.finishedLocked() {
		return
	}
	for i, j := range rt.jobs {
		if j == h {
			rt.jobs = append(rt.jobs[:i], rt.jobs[i+1:]...)
			break
		}
	}
	close(h.done)
	rt.cond.Broadcast()
}

// stickySlack is how far (in virtual time, i.e. weighted task pickups) a
// worker's current job may run ahead of the fair-share minimum before the
// worker switches jobs. Sticking to one job preserves cache locality —
// per-task rotation across jobs touches every working set in turn — while
// the bound keeps long jobs from starving their neighbours.
const stickySlack = 4.0

// pickLocked selects the job to serve next: the worker's previous job
// while it stays within stickySlack of the smallest in-flight virtual
// time, else the job with the smallest virtual time (admission order
// breaking ties).
func (rt *Runtime) pickLocked(prev *JobHandle) *JobHandle {
	var best *JobHandle
	for _, h := range rt.jobs {
		if len(h.ready) == 0 {
			continue
		}
		if best == nil || h.vtime < best.vtime {
			best = h
		}
	}
	if best != nil && prev != nil && prev != best &&
		len(prev.ready) > 0 && prev.vtime <= best.vtime+stickySlack {
		return prev
	}
	return best
}

func (rt *Runtime) worker(id int) {
	defer rt.wg.Done()
	// The worker's arena grows lazily to the largest requirement among the
	// jobs it serves; a steady mix of shapes reaches a high-water mark and
	// stops allocating.
	ws := nla.NewWorkspace(0)
	var last *JobHandle
	for {
		rt.mu.Lock()
		var h *JobHandle
		for {
			h = rt.pickLocked(last)
			if h != nil || (rt.closed && len(rt.jobs) == 0) {
				break
			}
			rt.cond.Wait()
		}
		if h == nil {
			rt.mu.Unlock()
			return
		}
		t := heap.Pop(&h.ready).(*Task)
		h.inflight++
		h.vtime += 1 / h.weight
		last = h
		need := h.g.ScratchElems
		blocking := h.g.Blocking
		rt.mu.Unlock()

		if need > ws.Cap() {
			ws.EnsureCap(need)
			atomic.StoreInt64(&rt.wsBytes[id], int64(ws.Cap())*8)
		}
		ws.Blocking = blocking
		err := h.g.RunTask(t, ws, id)
		if err != nil {
			// A panicking kernel skipped its Release calls; drop its
			// checkouts so the long-lived worker's arena does not leak
			// capacity across the jobs that follow.
			ws.Reset()
		}

		rt.mu.Lock()
		h.inflight--
		h.undone--
		if err != nil {
			h.stopLocked(err)
		}
		if !h.stopped {
			for _, s := range t.succs {
				s.npred--
				if s.npred == 0 {
					heap.Push(&h.ready, s)
				}
			}
		}
		rt.finishIfDoneLocked(h)
		rt.cond.Broadcast()
		rt.mu.Unlock()
	}
}

// Close stops the pool: no further Submit is accepted, every in-flight
// job runs to completion, and the workers exit. Close blocks until the
// pool has wound down; it is safe to call once.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	rt.closed = true
	rt.cond.Broadcast()
	rt.mu.Unlock()
	rt.wg.Wait()
}
