package experiments

import (
	"fmt"
	"math/rand"

	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/dist"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/tile"
)

// DistExec runs the real distributed executor on in-process ranks and
// prints its measured communication next to the virtual-time simulator's
// prediction for the same (graph, distribution) pair. The two must agree
// exactly — the executor and the simulator share the dedup accounting by
// construction — so the "match" column doubles as a self-check of the
// distributed backend on every bench run. Grid dimensions of zero derive
// a near-square grid from nodes.
func DistExec(sc Scale, nodes, gridR, gridC int) *Table {
	if nodes < 1 {
		nodes = 4
	}
	var grid dist.Grid
	if gridR > 0 && gridC > 0 {
		grid = dist.Grid{R: gridR, C: gridC}
	} else {
		grid = dist.SquareGrid(nodes)
	}

	type config struct {
		name    string
		m, n    int
		nb      int
		rbidiag bool
	}
	configs := []config{
		{"bidiag", 768, 768, 64, false},
		{"rbidiag", 1536, 384, 64, true},
	}
	if sc.Small {
		configs = []config{
			{"bidiag", 256, 256, 32, false},
			{"rbidiag", 512, 128, 32, true},
		}
	}

	t := &Table{
		Name: "distexec",
		Caption: fmt.Sprintf("real executor on %d in-process nodes (%v grid) vs distributed simulator: measured == predicted comm",
			grid.Nodes(), grid),
		Header: []string{"algorithm", "m", "n", "tasks",
			"msgs", "msgs (sim)", "comm (MB)", "comm (sim MB)", "match",
			"payload (MB)", "wall (ms)", "util"},
	}
	for _, c := range configs {
		rng := rand.New(rand.NewSource(7))
		a := nla.RandomMatrix(rng, c.m, c.n)
		sh := core.ShapeOf(c.m, c.n, c.nb)
		tc := dist.AutoDefaults(sh, grid, 2)
		cfg := tc.Configure()

		// Every rank builds its own graph over its own copy of the input,
		// so each remote operand really crosses the transport.
		build := func() *sched.Graph {
			g := sched.NewGraph()
			data := tile.FromDense(a, c.nb)
			if c.rbidiag {
				core.BuildRBidiag(g, sh, data, cfg)
			} else {
				core.BuildBidiag(g, sh, data, cfg)
			}
			return g
		}
		g := build()
		res, err := dist.Execute(g, dist.Options{Grid: grid, WorkersPerNode: 2, Replica: build})
		if err != nil {
			panic(fmt.Sprintf("distexec: %v", err))
		}
		sim := g.SimulateDistributed(sched.DistConfig{
			Nodes:          grid.Nodes(),
			WorkersPerNode: 2,
			Latency:        1.5e-6,
			BytesPerTime:   5e9,
			TimeOf:         sched.WeightTime,
		})
		match := "yes"
		if res.CommCount != sim.CommCount || res.CommVolume != sim.CommVolume {
			match = "NO"
		}
		t.Rows = append(t.Rows, []string{
			c.name, f0(float64(c.m)), f0(float64(c.n)), f0(float64(len(g.Tasks))),
			f0(float64(res.CommCount)), f0(float64(sim.CommCount)),
			f2(res.CommVolume / 1e6), f2(sim.CommVolume / 1e6), match,
			f2(float64(res.PayloadBytes) / 1e6),
			f1(float64(res.Wall.Microseconds()) / 1e3),
			f2(res.Utilization),
		})
	}
	return t
}
