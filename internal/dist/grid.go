// Package dist is the distributed-memory layer of the tiled
// bidiagonalization: a 2D block-cyclic data distribution, the hierarchical
// (local × high-level) reduction trees of the HQR framework that the paper
// uses on its cluster runs, and a real owner-compute executor that runs a
// sched.Graph on N ranks — in one process or one per process — with
// cross-rank dependencies satisfied by explicit messages over a pluggable
// Transport.
//
// The same Distribution drives three consumers that must agree with each
// other: the task builders of internal/core (ownership stamping), the
// virtual-time simulator sched.SimulateDistributed (communication
// prediction), and the executor of this package (measured communication).
package dist

import (
	"fmt"
	"math"
)

// Grid is a 2D block-cyclic process grid of R×C nodes: tile (i, j) lives
// on node (i mod R)·C + (j mod C). This is the distribution of the paper's
// DPLASMA runs (and of ScaLAPACK): tile rows cycle over grid rows, tile
// columns over grid columns, so every panel and every trailing update
// spreads across the whole machine.
type Grid struct {
	R, C int
}

// Nodes returns the node count R·C.
func (g Grid) Nodes() int { return g.R * g.C }

// Owner returns the node owning tile (i, j).
func (g Grid) Owner(i, j int) int32 {
	return int32((i%g.R)*g.C + j%g.C)
}

// RowOf returns the grid row of tile row i (the set of nodes holding it).
func (g Grid) RowOf(i int) int { return i % g.R }

// ColOf returns the grid column of tile column j.
func (g Grid) ColOf(j int) int { return j % g.C }

func (g Grid) String() string { return fmt.Sprintf("%dx%d", g.R, g.C) }

// Validate reports whether the grid is usable.
func (g Grid) Validate() error {
	if g.R < 1 || g.C < 1 {
		return fmt.Errorf("dist: invalid grid %dx%d", g.R, g.C)
	}
	if g.Nodes() > math.MaxInt32 {
		return fmt.Errorf("dist: grid %dx%d overflows the 32-bit node id", g.R, g.C)
	}
	return nil
}

// SquareGrid returns the most nearly square R×C grid with R·C == nodes
// (R ≤ C, as is conventional for m ≥ n matrices): 4 → 2×2, 6 → 2×3,
// 9 → 3×3. A prime node count degenerates to 1×nodes.
func SquareGrid(nodes int) Grid {
	if nodes < 1 {
		nodes = 1
	}
	r := 1
	for d := 1; d*d <= nodes; d++ {
		if nodes%d == 0 {
			r = d
		}
	}
	return Grid{R: r, C: nodes / r}
}

// TallSkinnyGrid returns the nodes×1 grid the paper uses for tall-skinny
// matrices: every node owns full tile rows, so the QR panel reductions are
// the only cross-node communication.
func TallSkinnyGrid(nodes int) Grid {
	if nodes < 1 {
		nodes = 1
	}
	return Grid{R: nodes, C: 1}
}
