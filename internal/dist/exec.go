package dist

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/tiled-la/bidiag/internal/sched"
)

// Options configures the in-process distributed executor (Execute).
type Options struct {
	// Grid is the node grid; the executor runs Grid.Nodes() in-process
	// ranks. Graphs whose task owners exceed the node count are folded
	// onto it modulo Nodes, exactly as in SimulateDistributed.
	Grid Grid
	// WorkersPerNode is each rank's goroutine pool size (default 1).
	WorkersPerNode int
	// Transport carries inter-node messages. Nil selects the in-process
	// ChanTransport. A non-nil transport must connect Grid.Nodes() nodes;
	// Execute closes it when the run ends.
	Transport Transport
	// Replica, when set, builds one rank's private copy of the graph —
	// the same tasks over its own copy of the input. Nil runs every rank
	// on the caller's graph (see Execute).
	Replica func() *sched.Graph
}

// Result reports a distributed execution.
type Result struct {
	Nodes, WorkersPerNode int
	TasksRun              int
	// Wall is the end-to-end execution time; Busy sums the time workers
	// spent inside kernels, and Utilization is Busy/(workers × Wall).
	Wall        time.Duration
	Busy        time.Duration
	Utilization float64
	// CommCount and CommVolume are the measured inter-node transfers and
	// modeled bytes, deduplicated per (producer, destination node). For a
	// given (graph, distribution) pair they equal the prediction of
	// sched.SimulateDistributed by construction.
	CommCount  int
	CommVolume float64
	// PayloadBytes is the serialized data actually moved through the
	// transport (zero for simulation-only graphs, which have no payload
	// serializers attached).
	PayloadBytes int64
	// WireFrames and WireBytes are the frames and total bytes this
	// process actually put on the wire, headers included, when the
	// transport can measure them (TCPTransport); zero otherwise. Unlike
	// CommVolume — the modeled figure shared with SimulateDistributed —
	// WireBytes includes framing overhead and ordering/gather frames.
	WireFrames int64
	WireBytes  int64
	// NodeBusy breaks Busy down by node; NodeRecv[r] is the number of
	// data frames rank r delivered.
	NodeBusy []time.Duration
	NodeRecv []int
}

// Execute runs the graph under owner-compute semantics on Grid.Nodes()
// in-process ranks, each an ExecuteNode over one shared transport: every
// task runs on the rank owning its output tile, and every dependence
// edge between ranks becomes a message. The floating-point result is
// bitwise-identical to RunSequential: all conflicting accesses are
// ordered by graph edges, so every datum sees the same kernel sequence on
// any schedule.
//
// Options.Replica, when set, is called once for each rank but 0 before
// any rank starts. Rank 0 runs g and gathers the other ranks' final
// regions, so g's data ends bitwise-identical to a sequential run
// although every remote operand crossed the transport as bytes. Without a replica builder all ranks run g in one address space:
// messages are shipped and counted but their payloads are not restored.
//
// The per-rank Results are summed. The first rank error closes the
// transport so that every other rank returns, and the failing rank's own
// error — not the ErrTransportClosed failures or relayed error notices it
// causes in the others — is returned.
func Execute(g *sched.Graph, opt Options) (*Result, error) {
	if err := validate(g, opt.Grid); err != nil {
		return nil, err
	}
	n := opt.Grid.Nodes()
	wpn := max(opt.WorkersPerNode, 1)
	shared := opt.Replica == nil
	graphs := make([]*sched.Graph, n)
	graphs[0] = g
	for r := 1; r < n; r++ {
		graphs[r] = g
		if !shared {
			graphs[r] = opt.Replica()
			if len(graphs[r].Tasks) != len(g.Tasks) {
				return nil, fmt.Errorf("dist: replica for rank %d has %d tasks, want %d", r, len(graphs[r].Tasks), len(g.Tasks))
			}
		}
	}
	for r, gr := range graphs {
		if r == 0 || !shared {
			gr.ComputeBottomLevels(sched.WeightTime)
		}
	}
	tr := opt.Transport
	if tr == nil {
		tr = NewChanTransport(n)
	}
	closeTransport := sync.OnceValue(tr.Close)

	start := time.Now()
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r, gr := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := executeNode(gr, NodeOptions{
				Grid: opt.Grid, WorkersPerNode: wpn, Transport: tr, Rank: r, Gather: !shared,
			}, shared)
			if err != nil {
				errs[r] = err
				// The ranks waiting on this one's frames would wait
				// forever; a closed transport fails them promptly.
				closeTransport()
				return
			}
			results[r] = res
		}()
	}
	wg.Wait()
	closeErr := closeTransport()
	if err := rootCause(errs); err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}

	total := &Result{
		Nodes: n, WorkersPerNode: wpn, Wall: time.Since(start),
		NodeBusy: make([]time.Duration, n), NodeRecv: make([]int, n),
	}
	for r, res := range results {
		total.TasksRun += res.TasksRun
		total.Busy += res.Busy
		total.CommCount += res.CommCount
		total.CommVolume += res.CommVolume
		total.PayloadBytes += res.PayloadBytes
		total.NodeBusy[r] = res.NodeBusy[r]
		total.NodeRecv[r] = res.NodeRecv[r]
	}
	if total.Wall > 0 {
		total.Utilization = float64(total.Busy) / (float64(n*wpn) * float64(total.Wall))
	}
	return total, nil
}

// rootCause picks, from the per-rank errors of a failed run, the one that
// caused the others: the lowest-ranked error that is neither a closed
// transport nor a relayed peer failure, else the lowest-ranked error. It
// returns nil when no rank failed.
func rootCause(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var pe *peerError
		if !errors.Is(err, ErrTransportClosed) && !errors.As(err, &pe) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// validate checks the grid and that every task has an owner.
func validate(g *sched.Graph, grid Grid) error {
	if err := grid.Validate(); err != nil {
		return err
	}
	for _, t := range g.Tasks {
		if t.Node < 0 {
			return fmt.Errorf("dist: task %d has negative owner %d", t.ID, t.Node)
		}
	}
	return nil
}
