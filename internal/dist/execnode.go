package dist

import (
	"container/heap"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/sched"
)

// Reserved Producer values of out-of-band frames. Real task IDs are never
// negative, so these multiplex cleanly over the same Transport.
const (
	// ProducerGather marks a frame carrying the sender rank's final
	// region snapshots — the end-of-job gather ExecuteNode ships to rank
	// 0 when NodeOptions.Gather is set.
	ProducerGather int32 = -2
	// ProducerControl marks an out-of-band control frame. ExecuteNode
	// never sends or expects one; the cluster layer uses them between
	// jobs to broadcast work to the peer ranks.
	ProducerControl int32 = -3
	// ProducerError carries a remote rank's failure: the payload is the
	// error text. A rank whose execution fails ships one to rank 0 so
	// the head fails the job promptly instead of waiting out a stall.
	ProducerError int32 = -4
)

// NodeOptions configures one rank of a multi-process owner-compute
// execution (ExecuteNode).
type NodeOptions struct {
	// Grid is the process grid; the job spans Grid.Nodes() ranks, one
	// process each, every one executing ExecuteNode over an identical
	// graph built from an identical input (SPMD).
	Grid Grid
	// WorkersPerNode is this rank's worker pool size (default 1).
	WorkersPerNode int
	// Transport connects this rank to its peers (required). ExecuteNode
	// never closes it, so a persistent mesh can carry many jobs
	// back-to-back; standalone callers close it themselves.
	Transport Transport
	// Rank is this process's node id in [0, Grid.Nodes()).
	Rank int
	// Gather, when set, ships every datum's final region bytes to rank 0
	// at the end of the job (each rank sends the regions whose last
	// writer it ran), so rank 0 finishes holding the complete result —
	// bitwise-identical to a sequential run — and can serve it.
	Gather bool
	// StallTimeout fails the execution when this rank makes no local
	// progress (no task completion, no frame arrival) for the duration —
	// the detector that turns a lost peer or a dropped frame into a
	// prompt error instead of a hang. It must comfortably exceed the
	// longest stretch this rank legitimately spends waiting on remote
	// computation. 0 disables.
	StallTimeout time.Duration
}

// nodeEngine is one rank of an owner-compute execution: a worker pool
// draining a ready heap of the rank's tasks, and an outbox serialized
// through a single sender goroutine (the rank's NIC). Remote
// dependencies cross the transport in both directions: data edges as
// payload frames, and ordering edges as payload-free enable frames — a
// WAR/WAW edge whose endpoints live on different ranks has no shared
// counter to decrement. Ordering frames are excluded from the
// communication accounting, which therefore matches
// sched.SimulateDistributed exactly.
type nodeEngine struct {
	g     *sched.Graph
	tr    Transport
	rank  int32
	nodes int32
	// shared marks a rank that shares its graph's memory with the other
	// ranks (Execute without replicas): payloads are counted but never
	// restored, and comm events are not traced.
	shared bool

	// mu guards the scheduling state and the Result; cond wakes the
	// workers. The workers exit once remaining reaches 0 or err is set.
	mu        sync.Mutex
	cond      *sync.Cond
	ready     sched.ReadyQueue // runnable local tasks
	preds     []int32          // unfinished predecessors, by task ID
	remaining int              // local tasks not yet completed
	err       error            // the first fatal error
	busy      time.Duration
	res       Result

	outMu     sync.Mutex
	outCond   *sync.Cond
	outbox    []Message
	outClosed bool
	// outEnq parallels outbox with enqueue timestamps when trackComm is
	// set.
	outEnq []time.Time

	// ws is the transport's optional wire accounting, asserted once at
	// setup. links is its optional per-link telemetry. When the graph
	// carries a tracer, nicRing and recvRing are this rank's comm-event
	// rings (indices rank·wpn+wpn and rank·wpn+wpn+1, just past the
	// worker rings) and origin its time base. trackComm is the single
	// flag the frame paths check: false keeps them byte-for-byte on the
	// pre-telemetry fast path.
	ws        WireStatser
	links     *LinkStats
	nicRing   *obs.Ring
	recvRing  *obs.Ring
	origin    time.Time
	trackComm bool

	stop     chan struct{} // closed on failure or after the job drains
	stopOnce sync.Once
	// gatherOK is closed once every peer's gather frame arrived (rank 0
	// only). The payloads are buffered in gathers and restored by the
	// main goroutine after the local workers have quiesced — restoring
	// from the receiver could race a still-running local reader of the
	// same region.
	gatherOK chan struct{}
	gathers  map[int32][]byte
	progress atomic.Int64
}

// ExecuteNode runs this process's share of an owner-compute execution:
// the graph must be built identically on every rank (same input, same
// shape, same configuration — SPMD), and each rank executes exactly the
// tasks it owns. Cross-process read-after-write edges are satisfied by
// payload frames whose bytes are restored into the local replica of the
// producer's output regions before any local consumer runs; cross-process
// ordering edges travel as payload-free enable frames. The result on the
// owning rank of every datum is bitwise-identical to RunSequential on one
// address space.
//
// The returned Result carries this rank's share of the communication:
// summing CommCount/CommVolume over all ranks reproduces the
// SimulateDistributed prediction.
func ExecuteNode(g *sched.Graph, opt NodeOptions) (*Result, error) {
	if err := validate(g, opt.Grid); err != nil {
		return nil, err
	}
	if opt.Rank < 0 || opt.Rank >= opt.Grid.Nodes() {
		return nil, fmt.Errorf("dist: rank %d outside %s grid", opt.Rank, opt.Grid)
	}
	if opt.Transport == nil {
		return nil, fmt.Errorf("dist: ExecuteNode requires a transport")
	}
	g.ComputeBottomLevels(sched.WeightTime)
	return executeNode(g, opt, false)
}

// executeNode runs one rank on a validated configuration whose graph
// already carries its bottom levels; shared is nodeEngine.shared.
func executeNode(g *sched.Graph, opt NodeOptions, shared bool) (*Result, error) {
	n := opt.Grid.Nodes()
	wpn := max(opt.WorkersPerNode, 1)
	e := &nodeEngine{
		g:      g,
		tr:     opt.Transport,
		rank:   int32(opt.Rank),
		nodes:  int32(n),
		shared: shared,
		preds:  make([]int32, len(g.Tasks)),
		stop:   make(chan struct{}),
	}
	e.res = Result{Nodes: n, WorkersPerNode: wpn, NodeBusy: make([]time.Duration, n), NodeRecv: make([]int, n)}
	e.cond = sync.NewCond(&e.mu)
	e.outCond = sync.NewCond(&e.outMu)
	if opt.Gather && e.rank == 0 {
		e.gatherOK = make(chan struct{})
		e.gathers = map[int32][]byte{}
		if n == 1 {
			close(e.gatherOK)
		}
	}

	local := 0
	for _, t := range g.Tasks {
		if e.nodeOf(t) == e.rank {
			local++
		}
		for _, s := range t.Succs() {
			e.preds[s.ID]++
		}
	}
	e.remaining = local

	var wireBase int64
	if ws, ok := e.tr.(WireStatser); ok {
		e.ws = ws
		_, wireBase, _ = ws.WireStats()
	}
	if ls, ok := e.tr.(LinkStatser); ok {
		e.links = ls.Links()
	}
	if tr := g.Tracer; tr != nil && !shared {
		e.origin = tr.Origin()
		e.nicRing = tr.Ring(opt.Rank*wpn + wpn)
		e.recvRing = tr.Ring(opt.Rank*wpn + wpn + 1)
	}
	e.trackComm = e.nicRing != nil || e.links != nil

	// Seed the ready heap before any goroutine starts: a persistent mesh
	// can already hold buffered frames for this job (staggered
	// back-to-back cluster jobs), so the receiver may mutate preds and
	// push onto the ready heap immediately.
	for _, t := range g.Tasks {
		if e.preds[t.ID] == 0 && e.nodeOf(t) == e.rank {
			heap.Push(&e.ready, t)
		}
	}

	start := time.Now()
	var receivers, senders, workers sync.WaitGroup
	receivers.Add(1)
	go e.receiver(&receivers)
	senders.Add(1)
	go e.sender(&senders)
	if opt.StallTimeout > 0 {
		go e.watchdog(opt.StallTimeout)
	}
	for w := 0; w < wpn; w++ {
		workers.Add(1)
		go e.worker(int(e.rank)*wpn+w, &workers)
	}
	workers.Wait()

	// Local tasks are done (or the run failed). Ship the end-of-job
	// frames while the NIC is still open: the gather to rank 0 on
	// success, an error notice on failure.
	if err := e.currentErr(); err == nil {
		if opt.Gather && e.rank != 0 {
			e.ship(Message{From: e.rank, To: 0, Producer: ProducerGather, Payload: e.gatherPayload()})
		}
	} else if e.rank != 0 {
		e.ship(Message{From: e.rank, To: 0, Producer: ProducerError, Payload: []byte(err.Error())})
	}
	// Rank 0 stays receiving until every peer's gather arrived, then
	// installs the buffered payloads — the workers are quiescent now, so
	// no local task can race the restores.
	if e.gatherOK != nil {
		select {
		case <-e.gatherOK:
			for from, payload := range e.gathers {
				e.restoreGather(from, payload)
			}
		case <-e.stop:
		}
	}

	e.outMu.Lock()
	e.outClosed = true
	e.outCond.Broadcast()
	e.outMu.Unlock()
	senders.Wait()
	e.stopNow() // receiver exits; transport stays open for the next job
	receivers.Wait()
	if err := e.currentErr(); err != nil {
		return nil, err
	}

	e.res.Wall = time.Since(start)
	e.res.TasksRun = local
	e.res.NodeBusy[e.rank] = e.busy
	e.res.Busy = e.busy
	if e.res.Wall > 0 {
		e.res.Utilization = float64(e.res.Busy) / (float64(wpn) * float64(e.res.Wall))
	}
	if e.ws != nil {
		frames, wire, _ := e.ws.WireStats()
		e.res.WireFrames = frames
		e.res.WireBytes = wire - wireBase
	}
	return &e.res, nil
}

func (e *nodeEngine) nodeOf(t *sched.Task) int32 { return t.Node % e.nodes }

func (e *nodeEngine) stopNow() { e.stopOnce.Do(func() { close(e.stop) }) }

func (e *nodeEngine) currentErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// fail records the first fatal error, wakes the workers and stops the
// receiver.
func (e *nodeEngine) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	e.stopNow()
}

func (e *nodeEngine) worker(id int, wg *sync.WaitGroup) {
	defer wg.Done()
	ws := e.g.NewWorkspace()
	for {
		e.mu.Lock()
		for len(e.ready) == 0 && e.remaining > 0 && e.err == nil {
			e.cond.Wait()
		}
		if len(e.ready) == 0 || e.err != nil {
			e.mu.Unlock()
			return
		}
		t := heap.Pop(&e.ready).(*sched.Task)
		e.mu.Unlock()

		begin := time.Now()
		if err := e.g.RunTask(t, ws, id); err != nil {
			e.fail(fmt.Errorf("dist: rank %d: %w", e.rank, err))
			return
		}
		e.complete(t, time.Since(begin))
	}
}

// complete propagates a local task that ran for d: ship one frame per
// remote destination node combining the payload of its data edges
// (snapshotted before any successor may run) with every enable the
// destination is owed — data and ordering alike — then enable the local
// successors.
func (e *nodeEngine) complete(t *sched.Task, d time.Duration) {
	e.progress.Add(1)
	succs := t.Succs()

	var local []*sched.Task
	var outs []*outMsg
	var byDest map[int32]*outMsg
	for i, s := range succs {
		sn := e.nodeOf(s)
		if sn == e.rank {
			local = append(local, s)
			continue
		}
		if byDest == nil {
			byDest = map[int32]*outMsg{}
		}
		m := byDest[sn]
		if m == nil {
			m = &outMsg{dest: sn}
			byDest[sn] = m
			outs = append(outs, m)
		}
		if bytes := t.EdgeBytes(i); bytes > 0 {
			if m.bytes == 0 {
				// First data edge to this destination: the volume figure
				// the simulator charges for the deduplicated transfer.
				m.bytes = bytes
			}
			for _, h := range t.EdgeHandles(i) {
				if !slices.Contains(m.handles, h) {
					m.handles = append(m.handles, h)
				}
			}
		}
		m.enable = append(m.enable, s.ID)
	}

	if len(outs) > 0 {
		snaps := map[*sched.Handle][]byte{}
		for _, m := range outs {
			var payload []byte
			for _, h := range m.handles {
				snap, ok := snaps[h]
				if !ok {
					snap = h.Snapshot()
					snaps[h] = snap
				}
				payload = append(payload, snap...)
			}
			e.ship(Message{
				From:     e.rank,
				To:       m.dest,
				Producer: t.ID,
				Bytes:    m.bytes,
				Payload:  payload,
				Enable:   m.enable,
			})
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.busy += d
	for _, s := range local {
		e.enableLocked(s)
	}
	e.remaining--
	if e.remaining == 0 {
		e.cond.Broadcast()
	}
}

// ship accounts a data transfer (ordering and out-of-band frames carry
// Bytes 0 and are free, as in the simulator) and enqueues the frame on
// this rank's NIC. A producer ships at most one frame per destination,
// so the count is deduplicated per (producer, destination) exactly as
// the simulator's is.
func (e *nodeEngine) ship(msg Message) {
	if msg.Bytes > 0 {
		e.mu.Lock()
		e.res.CommCount++
		e.res.CommVolume += float64(msg.Bytes)
		e.res.PayloadBytes += int64(len(msg.Payload))
		e.mu.Unlock()
	}
	e.outMu.Lock()
	e.outbox = append(e.outbox, msg)
	if e.trackComm {
		e.outEnq = append(e.outEnq, time.Now())
	}
	e.outCond.Signal()
	e.outMu.Unlock()
}

// sender is this rank's NIC: frames drain in FIFO order, one at a time.
func (e *nodeEngine) sender(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		e.outMu.Lock()
		for len(e.outbox) == 0 && !e.outClosed {
			e.outCond.Wait()
		}
		if len(e.outbox) == 0 {
			e.outMu.Unlock()
			return
		}
		msg := e.outbox[0]
		e.outbox = e.outbox[1:]
		var enq time.Time
		if e.trackComm {
			enq = e.outEnq[0]
			e.outEnq = e.outEnq[1:]
		}
		e.outMu.Unlock()
		if err := e.send(msg, enq); err != nil {
			e.fail(fmt.Errorf("dist: rank %d transport send: %w", e.rank, err))
			return
		}
	}
}

// send pushes one frame through the transport, recording the per-link
// queue wait and — when the graph carries a tracer — an OpSend comm
// event. With telemetry off (trackComm false) it is exactly one nil
// check around the transport call, matching RunTask's discipline; the
// tracked path adds no allocations (lock-free histogram observes and a
// preallocated ring slot). Self-sends never touch a wire and are
// excluded, so event byte sums remain comparable to WireStats.
func (e *nodeEngine) send(msg Message, enq time.Time) error {
	if !e.trackComm {
		return e.tr.Send(msg)
	}
	begin := time.Now()
	err := e.tr.Send(msg)
	if msg.To == e.rank {
		return err
	}
	if e.links != nil {
		e.links.RecordQueueWait(msg.To, begin.Sub(enq))
	}
	if e.nicRing != nil {
		e.nicRing.Record(obs.Event{
			Op:           obs.OpSend,
			ID:           msg.Producer,
			Node:         e.rank,
			Peer:         msg.To,
			WireBytes:    frameWireSize(msg),
			PayloadBytes: int64(len(msg.Payload)),
			Wait:         begin.Sub(enq),
			Start:        begin.Sub(e.origin),
			End:          time.Since(e.origin),
		})
	}
	return err
}

// recordRecv records an OpRecv comm event for a frame this rank acted
// on. The receiver calls it only for frames that passed its dedup, so a
// duplicated or dropped wire frame (FaultTransport, a retrying
// transport) yields exactly the events of the logical transfer that
// actually took effect. arrive is the dequeue instant, stamped before
// the frame was processed; self-sends are excluded.
func (e *nodeEngine) recordRecv(msg Message, arrive time.Duration) {
	if e.recvRing == nil || msg.From == e.rank {
		return
	}
	e.recvRing.Record(obs.Event{
		Op:           obs.OpRecv,
		ID:           msg.Producer,
		Node:         e.rank,
		Peer:         msg.From,
		WireBytes:    frameWireSize(msg),
		PayloadBytes: int64(len(msg.Payload)),
		Start:        arrive,
		End:          time.Since(e.origin),
	})
}

// receiver consumes this rank's frame stream: restore payloads into the
// local replicas, then release the tasks each frame enables. It exits on
// e.stop rather than transport close, so a persistent mesh survives the
// job. Duplicate frames (a faulty or retrying transport) are ignored —
// restoring stale bytes after later local writes would corrupt data, and
// double enables would corrupt the dependence counters.
func (e *nodeEngine) receiver(wg *sync.WaitGroup) {
	defer wg.Done()
	ch := e.tr.Recv(e.rank)
	if ch == nil {
		e.fail(fmt.Errorf("dist: transport has no receive stream for rank %d", e.rank))
		return
	}
	seen := map[int32]bool{}     // data/ordering frames, by producer
	gathered := map[int32]bool{} // gather frames, by sender rank
	defer func() {
		if r := recover(); r != nil {
			e.fail(fmt.Errorf("dist: rank %d receive: %v", e.rank, r))
		}
	}()
	for {
		select {
		case msg, ok := <-ch:
			if !ok {
				// A stream closed under a rank that still awaits frames
				// means they will never come; fail instead of leaving
				// the workers waiting.
				if e.pending() {
					e.fail(fmt.Errorf("dist: rank %d: receive stream closed mid-job: %w", e.rank, ErrTransportClosed))
				}
				return
			}
			var arrive time.Duration
			if e.recvRing != nil {
				arrive = time.Since(e.origin)
			}
			e.progress.Add(1)
			switch {
			case msg.Producer == ProducerError:
				e.recordRecv(msg, arrive)
				e.fail(&peerError{rank: msg.From, msg: string(msg.Payload)})
				return
			case msg.Producer == ProducerGather:
				if e.gathers == nil || gathered[msg.From] {
					continue
				}
				gathered[msg.From] = true
				e.gathers[msg.From] = msg.Payload
				e.recordRecv(msg, arrive)
				if len(gathered) == int(e.nodes)-1 {
					close(e.gatherOK)
				}
			case msg.Producer == ProducerControl:
				e.fail(fmt.Errorf("dist: rank %d received a control frame mid-job", e.rank))
				return
			case msg.Producer < 0 || int(msg.Producer) >= len(e.g.Tasks):
				e.fail(fmt.Errorf("dist: rank %d received frame from unknown producer %d", e.rank, msg.Producer))
				return
			default:
				if seen[msg.Producer] {
					continue
				}
				seen[msg.Producer] = true
				if err := e.deliver(msg); err != nil {
					e.fail(err)
					return
				}
				e.recordRecv(msg, arrive)
			}
		case <-e.stop:
			return
		}
	}
}

// deliver restores a data frame's payload, unless the rank shares the
// producer's memory, and releases the enabled tasks. The handle
// enumeration replays the sender's: walk the producer's edges into this
// rank, collecting each data edge's handles in first-seen order — both
// sides derive it from the same graph, so no metadata travels on the
// wire.
func (e *nodeEngine) deliver(msg Message) error {
	t := e.g.Tasks[msg.Producer]
	var restored []*sched.Handle
	for i, s := range t.Succs() {
		if e.shared || e.nodeOf(s) != e.rank || t.EdgeBytes(i) == 0 {
			continue
		}
		for _, h := range t.EdgeHandles(i) {
			if !slices.Contains(restored, h) {
				restored = append(restored, h)
			}
		}
	}
	rest := msg.Payload
	if e.shared {
		rest = nil
	}
	for _, h := range restored {
		rest = rest[h.Restore(rest):]
	}
	if len(rest) != 0 {
		return fmt.Errorf("dist: rank %d: frame from task %d has %d unconsumed payload bytes", e.rank, msg.Producer, len(rest))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if msg.Bytes > 0 {
		e.res.NodeRecv[e.rank]++
	}
	for _, id := range msg.Enable {
		if id < 0 || int(id) >= len(e.g.Tasks) {
			return fmt.Errorf("dist: rank %d: frame enables unknown task %d", e.rank, id)
		}
		e.enableLocked(e.g.Tasks[id])
	}
	return nil
}

// enableLocked decrements a task's predecessor count and, at zero, makes
// it runnable if this rank owns it. Callers hold e.mu.
func (e *nodeEngine) enableLocked(s *sched.Task) {
	e.preds[s.ID]--
	if e.preds[s.ID] == 0 && e.nodeOf(s) == e.rank {
		heap.Push(&e.ready, s)
		e.cond.Signal()
	}
}

// gatherPayload concatenates the final snapshots of every datum whose
// last writer ran on this rank, in handle registration order — the
// deterministic enumeration rank 0 replays in restoreGather.
func (e *nodeEngine) gatherPayload() []byte {
	var payload []byte
	for _, h := range e.g.Handles() {
		if w := h.LastWriter(); w != nil && e.nodeOf(w) == e.rank {
			payload = append(payload, h.Snapshot()...)
		}
	}
	return payload
}

// restoreGather installs a peer's final regions into rank 0's replica.
func (e *nodeEngine) restoreGather(from int32, payload []byte) {
	rest := payload
	for _, h := range e.g.Handles() {
		if w := h.LastWriter(); w != nil && e.nodeOf(w) == from {
			rest = rest[h.Restore(rest):]
		}
	}
	if len(rest) != 0 {
		e.fail(fmt.Errorf("dist: rank %d: gather from rank %d has %d unconsumed bytes", e.rank, from, len(rest)))
	}
}

// watchdog fails the execution when neither a completion nor a frame
// arrival happened for a full timeout window.
func (e *nodeEngine) watchdog(timeout time.Duration) {
	tick := time.NewTicker(timeout)
	defer tick.Stop()
	last := e.progress.Load()
	for {
		select {
		case <-e.stop:
			return
		case <-tick.C:
			cur := e.progress.Load()
			if cur == last && e.pending() {
				e.fail(fmt.Errorf("dist: rank %d stalled: no progress for %s (lost peer or dropped frame?)", e.rank, timeout))
				return
			}
			last = cur
		}
	}
}

// pending reports whether this rank, not yet failed, still awaits work:
// local tasks, or (rank 0) a peer's gather.
func (e *nodeEngine) pending() bool {
	gatherPending := false
	if e.gatherOK != nil {
		select {
		case <-e.gatherOK:
		default:
			gatherPending = true
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return (e.remaining > 0 || gatherPending) && e.err == nil
}

// peerError is the failure a rank reports when a peer's ProducerError
// frame tells it that the peer's execution failed. Msg is the peer's
// error text; the error chain itself does not cross the transport.
type peerError struct {
	rank int32
	msg  string
}

func (e *peerError) Error() string { return fmt.Sprintf("dist: rank %d failed: %s", e.rank, e.msg) }

// outMsg accumulates the frame for one destination rank during
// completion processing.
type outMsg struct {
	dest    int32
	bytes   int32 // first data-edge volume, the figure the simulator charges
	handles []*sched.Handle
	enable  []int32
}
