package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
)

// TestExecuteReplicasMatchSequential: with a replica builder every rank
// but 0 runs its own graph over its own copy of the input, so each remote
// operand reaches its consumer only as restored payload bytes. Rank 0's
// gathered result must still be bitwise-identical to RunSequential, and
// the summed comm must equal the simulator's prediction.
func TestExecuteReplicasMatchSequential(t *testing.T) {
	for _, sc := range shapeCases {
		grid := Grid{2, 2}
		t.Run(sc.name, func(t *testing.T) {
			a := nla.RandomMatrix(rand.New(rand.NewSource(42)), sc.m, sc.n)
			sh := core.ShapeOf(sc.m, sc.n, sc.nb)
			build := func() (*sched.Graph, *tile.Matrix) {
				g := sched.NewGraph()
				return g, buildGE2BND(g, sh, tile.FromDense(a, sc.nb), grid, 2, sc.rbidiag)
			}
			ref, refOut := build()
			ref.RunSequential()

			g, out := build()
			res, err := Execute(g, Options{Grid: grid, WorkersPerNode: 2, Replica: func() *sched.Graph {
				gr, _ := build()
				return gr
			}})
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if !tile.Equal(refOut, out, 0) {
				t.Fatal("gathered result differs bitwise from sequential")
			}
			if res.TasksRun != len(g.Tasks) {
				t.Fatalf("ran %d of %d tasks", res.TasksRun, len(g.Tasks))
			}
			recv := 0
			for _, n := range res.NodeRecv {
				recv += n
			}
			if recv != res.CommCount {
				t.Fatalf("ranks delivered %d data frames, %d were shipped", recv, res.CommCount)
			}
			sim := g.SimulateDistributed(sched.DistConfig{
				Nodes: grid.Nodes(), WorkersPerNode: 2, Latency: 1e-6, BytesPerTime: 5e9, TimeOf: sched.WeightTime,
			})
			if res.CommCount != sim.CommCount || res.CommVolume != sim.CommVolume {
				t.Fatalf("measured comm (%d, %.0f) != simulated (%d, %.0f)",
					res.CommCount, res.CommVolume, sim.CommCount, sim.CommVolume)
			}
		})
	}
}

// TestExecuteKernelPanicFailsEveryRank is the failure drill: a kernel
// panic on either rank of a 2×1 run must come back from Execute as the
// failing rank's own error naming the kernel kind — not as the
// transport-closed failure or the relayed error notice it causes on the
// other rank — promptly and without leaked goroutines. The other rank
// waits on a frame that never comes, so only closing the transport on
// the first error lets it return. Each case repeats, because which rank
// finishes first varies from run to run.
func TestExecuteKernelPanicFailsEveryRank(t *testing.T) {
	for _, bad := range []int32{0, 1} {
		for _, replicas := range []bool{false, true} {
			t.Run(fmt.Sprintf("rank=%d/replicas=%v", bad, replicas), func(t *testing.T) {
				before := runtime.NumGoroutine()
				// A chain alternating between the ranks over one datum;
				// the first task on the bad rank panics.
				build := func() *sched.Graph {
					g := sched.NewGraph()
					h := g.NewHandle(8, 0)
					state := []byte{0}
					h.SetPayload(func() []byte { return append([]byte(nil), state...) })
					h.SetRestore(func(buf []byte) int { copy(state, buf[:1]); return 1 })
					for i := int32(0); i < 6; i++ {
						kind, run := kernels.GEQRTKind, func(*nla.Workspace) { state[0]++ }
						if i == bad {
							kind, run = kernels.TSMQRKind, func(*nla.Workspace) { panic("bad tile") }
						}
						g.AddTask(kind, i%2, 1, 0, run, sched.RW(h))
					}
					return g
				}
				opt := Options{Grid: Grid{2, 1}}
				if replicas {
					opt.Replica = build
				}
				want := fmt.Sprintf("dist: rank %d: ", bad)
				for run := 0; run < 20; run++ {
					done := make(chan error, 1)
					go func() {
						_, err := Execute(build(), opt)
						done <- err
					}()
					select {
					case err := <-done:
						var pe *peerError
						if err == nil || !strings.Contains(err.Error(), "TSMQR") ||
							!strings.HasPrefix(err.Error(), want) || errors.As(err, &pe) {
							t.Fatalf("run %d: Execute = %v, want rank %d's own error naming the TSMQR kernel", run, err, bad)
						}
					case <-time.After(5 * time.Second):
						t.Fatalf("run %d: Execute hung after a kernel panic", run)
					}
				}
				for i := 0; i < 50; i++ {
					if runtime.NumGoroutine() <= before {
						return
					}
					time.Sleep(20 * time.Millisecond)
				}
				t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
			})
		}
	}
}

// TestExecuteNodeClosedStreamFails: a receive stream that closes while
// the rank still awaits a frame must fail the rank, even with the stall
// detector off — the frame can never arrive.
func TestExecuteNodeClosedStreamFails(t *testing.T) {
	tr := NewChanTransport(2)
	done := make(chan error, 1)
	go func() {
		_, err := ExecuteNode(twoRankGraph(), NodeOptions{Grid: Grid{2, 1}, Transport: tr, Rank: 1})
		done <- err
	}()
	tr.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTransportClosed) {
			t.Fatalf("ExecuteNode = %v, want ErrTransportClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rank hung after its receive stream closed")
	}
}

// TestChanTransportClose: Close releases a Send blocked on a full
// channel, later Sends fail instead of panicking, a second Close is a
// no-op, and messages queued before Close are still delivered.
func TestChanTransportClose(t *testing.T) {
	tr := NewChanTransport(2)
	queued := cap(tr.chans[1])
	for i := 0; i < queued; i++ {
		if err := tr.Send(Message{From: 0, To: 1, Producer: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- tr.Send(Message{From: 0, To: 1}) }()
	select {
	case err := <-blocked:
		t.Fatalf("Send on a full channel returned before Close: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blocked:
		if !errors.Is(err, ErrTransportClosed) {
			t.Fatalf("blocked Send = %v, want ErrTransportClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release a blocked Send")
	}
	if err := tr.Send(Message{From: 1, To: 0}); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("Send after Close = %v, want ErrTransportClosed", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	got := 0
	for range tr.Recv(1) {
		got++
	}
	if got != queued {
		t.Fatalf("%d of %d queued messages delivered after Close", got, queued)
	}
}
