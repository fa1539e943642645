package dist

import (
	"errors"
	"fmt"
	"sync"
)

// Message is one inter-node transfer: the datum produced by task Producer,
// shipped from node From to node To. Bytes is the modeled edge volume used
// for communication accounting (the same figure SimulateDistributed
// charges); Payload carries the actual serialized region data when the
// graph was built over real tiles, and is empty for simulation-only
// graphs. Enable lists the tasks on To that may not start before this
// message has arrived.
type Message struct {
	From, To int32
	Producer int32
	Bytes    int32
	Payload  []byte
	Enable   []int32
}

// Transport moves messages between nodes. The executor guarantees that
// Send is called from exactly one goroutine per source node (the node's
// NIC), so implementations need only preserve per-sender FIFO order —
// the ordering an MPI or TCP channel provides. Recv returns the receive
// stream of a node. Close closes every stream and makes later Sends fail;
// a rank whose stream closes while it still awaits frames fails with
// ErrTransportClosed, which is how Execute stops every rank after the
// first failure.
//
// ChanTransport below is the in-process implementation; TCPTransport
// (tcp.go) carries the same frames across processes, and the executor
// is bitwise deterministic across the two.
type Transport interface {
	Send(msg Message) error
	Recv(node int32) <-chan Message
	Close() error
}

// WireStatser is the optional Transport interface of implementations
// that can report send-side wire accounting: frames sent to remote
// peers, total bytes on the wire (framing included), and the payload
// bytes inside them. TCPTransport implements it; the in-process
// ChanTransport, which has no wire, does not.
type WireStatser interface {
	WireStats() (frames, wireBytes, payloadBytes int64)
}

// LinkStatser is the optional Transport interface of implementations
// that keep always-on per-link telemetry (frame and byte counters plus
// latency histograms per peer). TCPTransport implements it.
type LinkStatser interface {
	Links() *LinkStats
}

// ClockSyncer is the optional Transport interface of implementations
// that measure their clock relation to each peer. TCPTransport measures
// offset and RTT during the BDT1 handshake; in-process transports share
// one clock, so absence simply means zero offsets.
type ClockSyncer interface {
	ClockSyncs() []ClockSync
}

// ErrTransportClosed is returned by a Send that runs after Close, or that
// Close interrupted. A rank whose receive stream closes mid-job fails
// with it too, so an executor can tell these secondary failures from the
// error that made it tear the transport down.
var ErrTransportClosed = errors.New("dist: transport closed")

// ChanTransport is the deterministic in-process transport: one buffered
// channel per node. Payloads are copied on Send, so a received message
// never aliases sender memory — the property a real wire format gives you
// for free, preserved here so every rank restores genuine snapshots.
type ChanTransport struct {
	chans []chan Message
	// mu is held shared by every Send and exclusively by Close while it
	// closes the channels, so no Send ever writes to a closed channel.
	// done is closed first, releasing Sends blocked on a full channel.
	mu        sync.RWMutex
	closed    bool
	done      chan struct{}
	closeOnce sync.Once
}

// NewChanTransport returns a transport connecting the given node count.
func NewChanTransport(nodes int) *ChanTransport {
	t := &ChanTransport{chans: make([]chan Message, nodes), done: make(chan struct{})}
	for i := range t.chans {
		t.chans[i] = make(chan Message, 64)
	}
	return t
}

// Send delivers msg to node msg.To, copying the payload. It returns
// ErrTransportClosed after Close, and when Close runs while it is blocked
// on a full channel.
func (t *ChanTransport) Send(msg Message) error {
	if msg.To < 0 || int(msg.To) >= len(t.chans) {
		return fmt.Errorf("dist: send to unknown node %d (have %d)", msg.To, len(t.chans))
	}
	if msg.Payload != nil {
		msg.Payload = append([]byte(nil), msg.Payload...)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return ErrTransportClosed
	}
	select {
	case t.chans[msg.To] <- msg:
		return nil
	case <-t.done:
		return ErrTransportClosed
	}
}

// Recv returns node's receive channel.
func (t *ChanTransport) Recv(node int32) <-chan Message { return t.chans[node] }

// Close closes every receive channel; messages already queued are still
// delivered. It is safe to call more than once.
func (t *ChanTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		t.mu.Lock()
		t.closed = true
		for _, c := range t.chans {
			close(c)
		}
		t.mu.Unlock()
	})
	return nil
}
