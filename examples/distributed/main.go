// Distributed simulation and execution: replay the GE2BND task graph of a
// large matrix on a simulated cluster of 24-core nodes (the paper's miriel
// platform) to study strong scaling, communication volume, and the effect
// of the high-level reduction tree — then run a smaller problem for real
// on in-process distributed-memory nodes and check that the measured
// communication matches the simulator's prediction.
package main

import (
	"fmt"
	"math/rand"

	"github.com/tiled-la/bidiag/internal/baseline"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/machine"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
	"github.com/tiled-la/bidiag/internal/trees"
)

func main() {
	mod := machine.Miriel()

	// Strong scaling of a 20000×20000 BIDIAG across square grids.
	const m, n, nb = 20000, 20000, 160
	sh := core.ShapeOf(m, n, nb)
	flops := baseline.PaperFlops(m, n)
	fmt.Printf("BIDIAG GE2BND, %d×%d, NB=%d (p=q=%d tiles), simulated %d-core nodes\n\n",
		m, n, nb, sh.P, mod.CoresPerNode)
	fmt.Printf("%6s  %6s  %10s  %10s  %12s  %10s\n",
		"nodes", "grid", "seconds", "GFlop/s", "comm (GB)", "busy")

	for _, nodes := range []int{1, 4, 9, 16} {
		grid := dist.SquareGrid(nodes)
		tc := dist.AutoDefaults(sh, grid, mod.CoresPerNode-1)
		g := sched.NewGraph()
		core.BuildBidiag(g, sh, nil, tc.Configure())
		res := g.SimulateDistributed(mod.DistConfig(nodes, true))
		fmt.Printf("%6d  %dx%d     %10.1f  %10.1f  %12.2f  %9.0f%%\n",
			nodes, grid.R, grid.C, res.Makespan,
			baseline.GFlops(flops, res.Makespan),
			res.CommVolume/1e9, res.Utilization*100)
	}

	// The high-level tree trade-off of the HQR framework: flat trees
	// move less data, log-depth trees finish panels faster.
	fmt.Printf("\nhigh-level tree comparison on 9 nodes (3x3 grid):\n")
	fmt.Printf("%-10s  %10s  %12s\n", "high tree", "GFlop/s", "comm (GB)")
	for _, high := range []trees.Kind{trees.FlatTT, trees.Fibonacci, trees.Greedy} {
		grid := dist.SquareGrid(9)
		tc := dist.AutoDefaults(sh, grid, mod.CoresPerNode-1)
		tc.High = high
		tc.Domino = false
		g := sched.NewGraph()
		core.BuildBidiag(g, sh, nil, tc.Configure())
		res := g.SimulateDistributed(mod.DistConfig(9, true))
		fmt.Printf("%-10s  %10.1f  %12.2f\n",
			high, baseline.GFlops(flops, res.Makespan), res.CommVolume/1e9)
	}

	// Tall-skinny weak scaling with R-BIDIAG on nodes×1 grids.
	fmt.Printf("\nR-BIDIAG weak scaling, (40960·nodes)×2048, NB=128:\n")
	fmt.Printf("%6s  %10s  %10s  %12s\n", "nodes", "M", "GFlop/s", "GF/s per node")
	for _, nodes := range []int{1, 2, 4, 8} {
		mm := 40960 * nodes
		shTS := core.ShapeOf(mm, 2048, 128)
		tc := dist.AutoDefaults(shTS, dist.TallSkinnyGrid(nodes), mod.CoresPerNode)
		g := sched.NewGraph()
		core.BuildRBidiag(g, shTS, nil, tc.Configure())
		res := g.SimulateDistributed(mod.DistConfig(nodes, false))
		gf := baseline.GFlops(baseline.PaperFlops(mm, 2048), res.Makespan)
		fmt.Printf("%6d  %10d  %10.1f  %12.1f\n", nodes, mm, gf, gf/float64(nodes))
	}

	// Real execution: the same algorithm on 4 in-process nodes moving
	// actual tile data through messages. The executor's measured transfer
	// count and volume must equal the simulator's prediction for the same
	// graph, and the numerical result is bitwise-identical to a
	// sequential run.
	fmt.Printf("\nreal executor on in-process nodes, 768×768, NB=64, 2x2 grid:\n")
	const em, enb = 768, 64
	a := nla.RandomMatrix(rand.New(rand.NewSource(1)), em, em)
	esh := core.ShapeOf(em, em, enb)
	egrid := dist.SquareGrid(4)
	etc := dist.AutoDefaults(esh, egrid, 2)

	ref := sched.NewGraph()
	refData := tile.FromDense(a, enb)
	core.BuildBidiag(ref, esh, refData, etc.Configure())
	if err := ref.RunSequential(); err != nil {
		panic(err)
	}

	// Ranks 1–3 run replicas of the graph over their own copies of the
	// input; rank 0 runs g and gathers the result into data.
	build := func() (*sched.Graph, *tile.Matrix) {
		g := sched.NewGraph()
		data := tile.FromDense(a, enb)
		core.BuildBidiag(g, esh, data, etc.Configure())
		return g, data
	}
	g, data := build()
	res, err := dist.Execute(g, dist.Options{Grid: egrid, WorkersPerNode: 2, Replica: func() *sched.Graph {
		rg, _ := build()
		return rg
	}})
	if err != nil {
		panic(err)
	}
	sim := g.SimulateDistributed(sched.DistConfig{
		Nodes: 4, WorkersPerNode: 2,
		Latency: mod.NetLatency, BytesPerTime: mod.NetBandwidth,
		TimeOf: mod.TimeOf,
	})
	fmt.Printf("  executor:  wall %8.1f ms  utilization %3.0f%%  %5d msgs  %6.2f MB (payload %.2f MB)\n",
		float64(res.Wall.Microseconds())/1e3, res.Utilization*100,
		res.CommCount, res.CommVolume/1e6, float64(res.PayloadBytes)/1e6)
	fmt.Printf("  simulator: makespan %.1f ms (virtual)     %5d msgs  %6.2f MB\n",
		sim.Makespan*1e3, sim.CommCount, sim.CommVolume/1e6)
	fmt.Printf("  comm prediction exact: %v   bitwise-identical to sequential: %v\n",
		res.CommCount == sim.CommCount && res.CommVolume == sim.CommVolume,
		tile.Equal(refData, data, 0))
}
