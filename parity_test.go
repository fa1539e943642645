package bidiag

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/jacobi"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
)

// Executor parity: every conflicting access is ordered by a graph edge and
// every worker runs the same deterministic kernels (same GEMM blocking,
// same micro-kernel), so RunParallel and the distributed executor must be
// BITWISE-identical to RunSequential — not merely close. These tests fuzz
// that property across edge-tile shapes (m, n not multiples of nb), worker
// counts and process grids.

// buildGE2BND builds the GE2BND graph for one engine run: its own tiled
// copy of src with the given distributed-style config.
func buildGE2BND(src *nla.Matrix, nb int, grid dist.Grid, wpn int, useR bool) (*sched.Graph, *tile.Matrix) {
	sh := core.ShapeOf(src.Rows, src.Cols, nb)
	cfg := dist.AutoDefaults(sh, grid, wpn).Configure()
	work := tile.FromDense(src, nb)
	g := sched.NewGraph()
	if useR {
		_, r, _ := core.BuildRBidiag(g, sh, work, cfg)
		return g, r
	}
	core.BuildBidiag(g, sh, work, cfg)
	return g, work
}

func diffTiles(t *testing.T, label string, a, b *tile.Matrix) {
	t.Helper()
	for j := 0; j < a.Q; j++ {
		for i := 0; i < a.P; i++ {
			ta, tb := a.Tile(i, j), b.Tile(i, j)
			for c := 0; c < ta.Cols; c++ {
				for r := 0; r < ta.Rows; r++ {
					if ta.At(r, c) != tb.At(r, c) {
						t.Fatalf("%s: tile (%d,%d) element (%d,%d): %v != %v",
							label, i, j, r, c, ta.At(r, c), tb.At(r, c))
					}
				}
			}
		}
	}
}

func TestExecutorParityFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cases := []struct {
		m, n, nb int
		useR     bool
	}{
		{97, 67, 32, false},   // both dimensions ragged
		{130, 70, 32, true},   // ragged + R-bidiagonalization
		{96, 96, 32, false},   // exact tiling
		{100, 100, 48, false}, // ragged square
		{121, 40, 48, true},   // tall-skinny ragged
	}
	grids := []dist.Grid{{R: 2, C: 2}, {R: 3, C: 1}, {R: 1, C: 3}}
	workerCounts := []int{2, 5}

	for ci, tc := range cases {
		grid := grids[ci%len(grids)]
		name := fmt.Sprintf("%dx%d/nb=%d/useR=%v/grid=%dx%d", tc.m, tc.n, tc.nb, tc.useR, grid.R, grid.C)
		t.Run(name, func(t *testing.T) {
			src := nla.RandomMatrix(rng, tc.m, tc.n)

			// The hierarchical tree config adapts to the per-node worker
			// count, so every engine must build the SAME graph: parity is a
			// property of executing one DAG, not of comparing two different
			// (equally valid) elimination orders.
			const wpn = 2
			gSeq, refData := buildGE2BND(src, tc.nb, grid, wpn, tc.useR)
			gSeq.RunSequential()

			for _, workers := range workerCounts {
				gPar, parData := buildGE2BND(src, tc.nb, grid, wpn, tc.useR)
				gPar.RunParallel(workers)
				diffTiles(t, fmt.Sprintf("RunParallel(%d) vs RunSequential", workers), refData, parData)
			}

			gDist, distData := buildGE2BND(src, tc.nb, grid, wpn, tc.useR)
			if _, err := dist.Execute(gDist, dist.Options{Grid: grid, WorkersPerNode: 2}); err != nil {
				t.Fatalf("dist.Execute: %v", err)
			}
			diffTiles(t, "dist.Execute vs RunSequential", refData, distData)
		})
	}
}

// TestExecutorParityLoopbackTCP extends executor parity across a real
// wire: every rank of the grid runs dist.ExecuteNode as its own
// "process" — its own graph replica, its own TCP transport on loopback —
// and rank 0's gathered result must still be BITWISE-identical to
// RunSequential. The frames cross actual sockets, so this leg covers the
// wire codec, per-connection FIFO ordering, and payload restore, not
// just the channel fast path.
func TestExecutorParityLoopbackTCP(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cases := []struct {
		m, n, nb int
		useR     bool
		grid     dist.Grid
	}{
		{130, 70, 32, true, dist.Grid{R: 2, C: 2}},
		{97, 67, 32, false, dist.Grid{R: 3, C: 1}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%dx%d/useR=%v/grid=%dx%d", tc.m, tc.n, tc.useR, tc.grid.R, tc.grid.C)
		t.Run(name, func(t *testing.T) {
			src := nla.RandomMatrix(rng, tc.m, tc.n)
			const wpn = 2
			gSeq, refData := buildGE2BND(src, tc.nb, tc.grid, wpn, tc.useR)
			gSeq.RunSequential()

			nodes := tc.grid.Nodes()
			trs, err := dist.LoopbackTCPMesh(nodes)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, tr := range trs {
					tr.Close()
				}
			}()
			outs := make([]*tile.Matrix, nodes)
			errs := make([]error, nodes)
			var wg sync.WaitGroup
			for rank := 0; rank < nodes; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					g, data := buildGE2BND(src, tc.nb, tc.grid, wpn, tc.useR)
					outs[rank] = data
					_, errs[rank] = dist.ExecuteNode(g, dist.NodeOptions{
						Grid: tc.grid, WorkersPerNode: wpn,
						Transport: trs[rank], Rank: rank,
						Gather: true, StallTimeout: 60 * time.Second,
					})
				}(rank)
			}
			wg.Wait()
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
			}
			diffTiles(t, "ExecuteNode over TCP vs RunSequential", refData, outs[0])

			// Tracing must observe, never perturb: a second mesh pass with
			// per-rank tracers recording every task and frame stays
			// BITWISE-identical to the sequential reference.
			trs2, err := dist.LoopbackTCPMesh(nodes)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, tr := range trs2 {
					tr.Close()
				}
			}()
			touts := make([]*tile.Matrix, nodes)
			terrs := make([]error, nodes)
			events := make([]int, nodes)
			var twg sync.WaitGroup
			for rank := 0; rank < nodes; rank++ {
				twg.Add(1)
				go func(rank int) {
					defer twg.Done()
					g, data := buildGE2BND(src, tc.nb, tc.grid, wpn, tc.useR)
					touts[rank] = data
					// Ring indices are global (rank·wpn+local, plus NIC and
					// receiver lanes), so the ring count covers this rank's
					// highest index.
					tr := obs.NewTracer(rank*wpn+wpn+2, 4*len(g.Tasks)+64)
					g.Tracer = tr
					_, terrs[rank] = dist.ExecuteNode(g, dist.NodeOptions{
						Grid: tc.grid, WorkersPerNode: wpn,
						Transport: trs2[rank], Rank: rank,
						Gather: true, StallTimeout: 60 * time.Second,
					})
					events[rank] = len(tr.Events())
				}(rank)
			}
			twg.Wait()
			for rank, err := range terrs {
				if err != nil {
					t.Fatalf("traced rank %d: %v", rank, err)
				}
				if events[rank] == 0 {
					t.Fatalf("traced rank %d recorded no events", rank)
				}
			}
			diffTiles(t, "ExecuteNode over TCP with tracing ON vs RunSequential", refData, touts[0])
		})
	}
}

// TestFusedParityLoopbackTCP is the loopback-TCP ExecuteNode leg for a
// fused plan. The BANDCP adapters of different ranks each write part of
// one stage-2 column window, so a window reaches the next writer and the
// chase segments only as payload: rank 0's gathered bidiagonal must
// still be BITWISE-identical to a sequential run of the same plan.
func TestFusedParityLoopbackTCP(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cases := []struct {
		m, n, nb int
		useR     bool
		grid     dist.Grid
	}{
		{120, 84, 32, false, dist.Grid{R: 2, C: 2}},
		{130, 70, 32, true, dist.Grid{R: 3, C: 1}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%dx%d/useR=%v/grid=%dx%d", tc.m, tc.n, tc.useR, tc.grid.R, tc.grid.C)
		t.Run(name, func(t *testing.T) {
			src := nla.RandomMatrix(rng, tc.m, tc.n)
			const wpn = 2
			build := func() *pipeline.Plan {
				sh := core.ShapeOf(tc.m, tc.n, tc.nb)
				return pipeline.Build(pipeline.Spec{
					Shape: sh, Data: tile.FromDense(src, tc.nb), RBidiag: tc.useR, Fused: true,
					Config: dist.AutoDefaults(sh, tc.grid, wpn).Configure(),
				})
			}
			ref := build()
			if err := ref.Graph.RunSequential(); err != nil {
				t.Fatal(err)
			}
			wantD, wantE := ref.Bidiagonal().Bidiagonal()

			nodes := tc.grid.Nodes()
			trs, err := dist.LoopbackTCPMesh(nodes)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, tr := range trs {
					tr.Close()
				}
			}()
			plans := make([]*pipeline.Plan, nodes)
			errs := make([]error, nodes)
			var wg sync.WaitGroup
			for rank := 0; rank < nodes; rank++ {
				plans[rank] = build()
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					_, errs[rank] = dist.ExecuteNode(plans[rank].Graph, dist.NodeOptions{
						Grid: tc.grid, WorkersPerNode: wpn,
						Transport: trs[rank], Rank: rank,
						Gather: true, StallTimeout: 60 * time.Second,
					})
				}(rank)
			}
			wg.Wait()
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", rank, err)
				}
			}
			gotD, gotE := plans[0].Bidiagonal().Bidiagonal()
			for i := range wantD {
				if gotD[i] != wantD[i] {
					t.Fatalf("diagonal %d differs bitwise: %v != %v", i, gotD[i], wantD[i])
				}
			}
			for i := range wantE {
				if gotE[i] != wantE[i] {
					t.Fatalf("superdiagonal %d differs bitwise: %v != %v", i, gotE[i], wantE[i])
				}
			}
		})
	}
}

// TestSVDParityAcrossWorkers pins the same property end-to-end through the
// public API: the full SVD (reduction, recorded-reflector application,
// band SVD) must not depend on the worker count. The tree must be pinned
// to a non-adaptive kind — AUTO legitimately picks a different elimination
// order per core count, which changes rounding.
func TestSVDParityAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const m, n = 75, 50 // not multiples of nb
	a := NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	ref, err := SVD(a, &Options{NB: 16, Workers: 1, Tree: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := SVD(a, &Options{NB: 16, Workers: workers, Tree: Greedy})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range ref.S {
			if got.S[i] != s {
				t.Fatalf("workers=%d: singular value %d differs bitwise: %v != %v", workers, i, got.S[i], s)
			}
		}
		for j := 0; j < ref.U.Cols(); j++ {
			for i := 0; i < ref.U.Rows(); i++ {
				if got.U.At(i, j) != ref.U.At(i, j) {
					t.Fatalf("workers=%d: U(%d,%d) differs bitwise", workers, i, j)
				}
			}
		}
		for j := 0; j < ref.V.Cols(); j++ {
			for i := 0; i < ref.V.Rows(); i++ {
				if got.V.At(i, j) != ref.V.At(i, j) {
					t.Fatalf("workers=%d: V(%d,%d) differs bitwise", workers, i, j)
				}
			}
		}
	}
}

// TestGE2BNDParityWithCustomBlocking checks that a non-default GEMM
// blocking still yields executor parity (every worker shares the graph's
// blocking), and that different blockings agree to rounding on the
// singular values.
func TestGE2BNDParityWithCustomBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const m, n = 90, 70
	a := NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	opts1 := &Options{NB: 32, Workers: 1, Tree: Greedy, Gemm: GemmBlock{MC: 16, KC: 24, NC: 16}}
	opts4 := &Options{NB: 32, Workers: 4, Tree: Greedy, Gemm: GemmBlock{MC: 16, KC: 24, NC: 16}}
	b1, err := GE2BND(a, opts1)
	if err != nil {
		t.Fatal(err)
	}
	b4, err := GE2BND(a, opts4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b1.N(); i++ {
		for j := i; j <= i+b1.Bandwidth() && j < b1.N(); j++ {
			if b1.At(i, j) != b4.At(i, j) {
				t.Fatalf("custom blocking: band(%d,%d) differs across worker counts", i, j)
			}
		}
	}
	s1, err := b1.SingularValues()
	if err != nil {
		t.Fatal(err)
	}
	sDef, err := SingularValues(a, &Options{NB: 32, Workers: 1, Tree: Greedy})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		d := s1[i] - sDef[i]
		if d < 0 {
			d = -d
		}
		if d > 1e-10*(1+sDef[0]) {
			t.Fatalf("blocking changed singular value %d beyond rounding: %v vs %v", i, s1[i], sDef[i])
		}
	}
}

// TestSingularValuesParityAcrossBND2BD pins the full pipeline through the
// public API: the pipelined parallel BND2BD must give bitwise-identical
// singular values to the sequential reference, at every worker count.
// (GE2BND is pinned to a non-adaptive tree so the first stage is itself
// worker-independent.)
func TestSingularValuesParityAcrossBND2BD(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const m, n = 90, 60 // not multiples of nb
	a := NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	ref, err := SingularValues(a, &Options{NB: 16, Workers: 1, Tree: Greedy, BND2BD: BND2BDSequential})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, mode := range []BND2BD{BND2BDAuto, BND2BDPipelined} {
			got, err := SingularValues(a, &Options{NB: 16, Workers: workers, Tree: Greedy, BND2BD: mode})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("workers=%d mode=%v: singular value %d differs bitwise: %v != %v",
						workers, mode, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestFusedPipelineParityFuzz pins the tentpole property of the fused
// pipeline through the public API: emitting the BND2BD chase segments
// into the same task graph as the GE2BND kernels (Options.Fused) must
// give BITWISE-identical singular values to the staged reference, across
// ragged shapes × worker counts × trees × wavefront windows. The staged
// run forces the sequential BND2BD oracle, so the comparison crosses
// both the fusion seam and the stage-2 decomposition.
func TestFusedPipelineParityFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []struct {
		m, n, nb int
		alg      Algorithm
	}{
		{97, 67, 32, Bidiag},   // ragged both dimensions
		{130, 70, 32, RBidiag}, // ragged + R-bidiagonalization
		{96, 96, 32, Bidiag},   // exact tiling, square
		{100, 100, 48, Bidiag}, // ragged square
		{60, 110, 32, RBidiag}, // wide: transpose + RBidiag composition
		{121, 40, 48, AutoAlgorithm},
	}
	trees := []Tree{FlatTS, FlatTT, Greedy}
	workerCounts := []int{1, 2, 5}
	windows := []int{0, 17, 64}

	for ci, tc := range cases {
		tree := trees[ci%len(trees)]
		name := fmt.Sprintf("%dx%d/nb=%d/%v/%v", tc.m, tc.n, tc.nb, tc.alg, tree)
		t.Run(name, func(t *testing.T) {
			a := NewDense(tc.m, tc.n)
			for j := 0; j < tc.n; j++ {
				for i := 0; i < tc.m; i++ {
					a.Set(i, j, rng.NormFloat64())
				}
			}
			ref, err := SingularValues(a, &Options{
				NB: tc.nb, Tree: tree, Algorithm: tc.alg, Workers: 1, BND2BD: BND2BDSequential,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range workerCounts {
				for _, window := range windows {
					got, err := SingularValues(a, &Options{
						NB: tc.nb, Tree: tree, Algorithm: tc.alg, Workers: workers,
						Fused: true, BND2BDWindow: window,
					})
					if err != nil {
						t.Fatalf("workers=%d window=%d: %v", workers, window, err)
					}
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("workers=%d window=%d: singular value %d differs bitwise: %v != %v",
								workers, window, i, got[i], ref[i])
						}
					}
				}
			}
		})
	}
}

// TestFusedPipelineParityDistributed extends the fused parity to the
// owner-compute executor: the same fused graph, distributed over a node
// grid, must agree with the shared-memory staged reference to rounding
// (the hierarchical trees are a different elimination order, so — as for
// staged distributed runs — the comparison is on singular values, not
// bits) and must be bitwise-reproducible across repetitions.
func TestFusedPipelineParityDistributed(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const m, n, nb = 120, 84, 32
	a := NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	ref, err := SingularValues(a, &Options{NB: nb, Workers: 1, BND2BD: BND2BDSequential})
	if err != nil {
		t.Fatal(err)
	}
	dopts := func() *Options {
		return &Options{NB: nb, Fused: true,
			Distributed: &DistOptions{Nodes: 4, WorkersPerNode: 2}}
	}
	got, err := SingularValues(a, dopts())
	if err != nil {
		t.Fatal(err)
	}
	if diff := jacobi.MaxRelDiff(got, ref); diff > 1e-12 {
		t.Fatalf("fused distributed singular values off by %g", diff)
	}
	again, err := SingularValues(a, dopts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("fused distributed run not deterministic at value %d", i)
		}
	}
}
