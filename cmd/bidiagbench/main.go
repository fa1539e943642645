// Command bidiagbench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints an aligned table and writes a CSV
// file next to it.
//
// Usage:
//
//	bidiagbench -exp fig2a              # one experiment
//	bidiagbench -exp all -scale small   # everything, laptop sizes
//	bidiagbench -nodes 4                # real distributed executor vs simulator
//	bidiagbench -nodes 6 -grid 2x3      # explicit process grid
//	bidiagbench -m 1024 -n 1024 -nb 64 -workers 1   # one timed GE2BND, GFLOP/s
//	bidiagbench -m 4096 -n 1024 -json BENCH_ge2bnd.json
//	bidiagbench -stage bnd2bd -n 4096 -ku 64 -workers 8 -json BENCH_bnd2bd.json
//	bidiagbench -stage full -m 1024 -nb 64 -workers 4 -json BENCH_full.json
//	bidiagbench -stage batch -n 256 -jobs 64 -workers 4 -json BENCH_batch.json
//	bidiagbench -stage apply -nb 64 -reps 3 -json BENCH_kernels_apply.json
//	bidiagbench -list
//
// Experiments: table1, fig2a..fig2f, fig3a..fig3f, fig4a..fig4f,
// critpaths, crossover, asymptotics, accuracy, pipeline-cp, reconcile
// (real traced pool runs against the simulated makespan), and planner
// (the plan model's pick raced against an exhaustive real sweep of its
// own candidate set; regret per shape lands in planner.json). With
// -nodes the command
// instead runs GE2BND on that many in-process distributed-memory nodes
// and reports the measured message count and volume next to the
// distributed simulator's prediction for the same graph.
//
// With -m/-n (or -json) the command runs one real GE2BND of that shape and
// prints wall time and GFLOP/s; -json additionally writes the result —
// shape, nb, workers, wall time, GFLOP/s and (for distributed runs) the
// communication statistics — as a machine-readable file, the format the
// BENCH_*.json performance trajectory is tracked in. With -stage bnd2bd
// the timed run is the pipelined second stage instead: an n×n band of
// bandwidth -ku reduced to bidiagonal form on the task runtime, rated
// against the fixed BND2BD count 6·n²·ku (band.ModelFlops). With -stage
// full the timed run is the fused end-to-end pipeline (Options.Fused):
// GE2BND and BND2BD in one task graph plus the bidiagonal QR iteration,
// rated against the sum of the GE2BND flop count and the BND2BD count
// (-staged times the barrier path instead, for comparison); the record
// also carries a stages array — GE2BND, BND2BD and BD2VAL seconds and
// GFLOP/s from one staged pass — which cmd/benchguard gates entry by
// entry. With -stage batch the timed run is serving throughput: -jobs
// ragged small matrices (dimensions in [n/2, n]) through one
// bidiag.Service, gang-batched concurrent submission rated in jobs/s
// (plus client p50/p99 latency) against one-call-at-a-time submission on
// the same pool. With
// -stage apply the timed run is the four Householder-apply kernels in
// isolation (UNMQR, TSMQR, UNMLQ, TSMLQ at tile size -nb, the compact-WY
// hot path the AVX2 micro-kernels accelerate): each is rated in GFLOP/s
// and recorded in the kernels array of the JSON record, which
// cmd/benchguard gates entry by entry.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/baseline"
	"github.com/tiled-la/bidiag/internal/bdsqr"
	"github.com/tiled-la/bidiag/internal/critpath"
	"github.com/tiled-la/bidiag/internal/experiments"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/machine"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/trees"
)

type runner func(experiments.Scale) []*experiments.Table

func single(f func(experiments.Scale) *experiments.Table) runner {
	return func(sc experiments.Scale) []*experiments.Table {
		return []*experiments.Table{f(sc)}
	}
}

func pair(f func(experiments.Scale) (*experiments.Table, *experiments.Table)) runner {
	return func(sc experiments.Scale) []*experiments.Table {
		a, b := f(sc)
		return []*experiments.Table{a, b}
	}
}

var registry = map[string]runner{
	"table1":      single(experiments.Table1),
	"fig2a":       single(experiments.Fig2a),
	"fig2b":       single(experiments.Fig2b),
	"fig2c":       single(experiments.Fig2c),
	"fig2d":       single(experiments.Fig2d),
	"fig2e":       single(experiments.Fig2e),
	"fig2f":       single(experiments.Fig2f),
	"fig3a":       single(experiments.Fig3a),
	"fig3b":       single(experiments.Fig3b),
	"fig3c":       single(experiments.Fig3c),
	"fig3d":       single(experiments.Fig3d),
	"fig3e":       single(experiments.Fig3e),
	"fig3f":       single(experiments.Fig3f),
	"fig4a":       single(experiments.Fig4a),
	"fig4bc":      pair(experiments.Fig4bc),
	"fig4d":       single(experiments.Fig4d),
	"fig4ef":      pair(experiments.Fig4ef),
	"critpaths":   single(experiments.CriticalPaths),
	"crossover":   single(experiments.Crossover),
	"asymptotics": single(experiments.Asymptotics),
	"accuracy":    single(experiments.Accuracy),
	"pipeline-cp": single(experiments.PipelineCP),

	// Model-vs-measured: real traced pool runs reconciled against the
	// simulated makespan (wall clock, unlike every other experiment).
	"reconcile": func(sc experiments.Scale) []*experiments.Table {
		t, err := experiments.Reconcile(sc, runtime.GOMAXPROCS(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return []*experiments.Table{t}
	},

	// Ablations of the design choices called out in DESIGN.md.
	"ablation-deps":     single(experiments.AblationDeps),
	"ablation-nb":       single(experiments.AblationNB),
	"ablation-gamma":    single(experiments.AblationGamma),
	"ablation-hightree": single(experiments.AblationHighTree),
}

func names() []string {
	var n []string
	for k := range registry {
		n = append(n, k)
	}
	sort.Strings(n)
	return n
}

// parseGrid parses an "RxC" grid spec; zeros mean "derive from -nodes".
func parseGrid(s string) (int, int, error) {
	if s == "" {
		return 0, 0, nil
	}
	var r, c int
	if _, err := fmt.Sscanf(s, "%dx%d", &r, &c); err != nil || r < 1 || c < 1 {
		return 0, 0, fmt.Errorf("invalid -grid %q; want e.g. 2x3", s)
	}
	return r, c, nil
}

// currentSchema versions the machine-readable benchmark records
// (BENCH_*.json, planner.json). Bump it when fields change meaning;
// cmd/benchguard warns when a committed reference predates it.
// Schema 3 adds the kernels array of per-kernel apply rates
// (-stage apply records).
const currentSchema = 3

// perfResult is the machine-readable record of one timed GE2BND run, the
// schema of the BENCH_*.json performance-trajectory files.
type perfResult struct {
	Experiment  string  `json:"experiment"`
	Schema      int     `json:"schema,omitempty"`
	M           int     `json:"m"`
	N           int     `json:"n"`
	NB          int     `json:"nb,omitempty"`
	KU          int     `json:"ku,omitempty"` // band width of a bnd2bd run
	Workers     int     `json:"workers"`
	Tree        string  `json:"tree,omitempty"`
	Algorithm   string  `json:"algorithm,omitempty"`
	Tasks       int     `json:"tasks"`
	Reps        int     `json:"reps"`
	Fused       bool    `json:"fused,omitempty"` // full-pipeline runs: fused vs staged
	WallSeconds float64 `json:"wall_seconds"`    // best of Reps
	GFlops      float64 `json:"gflops,omitempty"`

	// Batch-throughput statistics (-stage batch); zero otherwise.
	// JobsPerSec is the gang-batched concurrent throughput, the tracked
	// figure; SeqJobsPerSec submits the same workload one call at a time
	// on an identically sized pool.
	Jobs          int     `json:"jobs,omitempty"`
	JobsPerSec    float64 `json:"jobs_per_sec,omitempty"`
	SeqJobsPerSec float64 `json:"seq_jobs_per_sec,omitempty"`
	P50Ms         float64 `json:"p50_ms,omitempty"`
	P99Ms         float64 `json:"p99_ms,omitempty"`

	// Distributed-run statistics; zero for shared-memory runs.
	Nodes          int     `json:"nodes,omitempty"`
	GridRows       int     `json:"grid_rows,omitempty"`
	GridCols       int     `json:"grid_cols,omitempty"`
	CommCount      int     `json:"comm_count,omitempty"`
	CommVolume     float64 `json:"comm_volume_bytes,omitempty"`
	PayloadBytes   int64   `json:"payload_bytes,omitempty"`
	UtilizationPct float64 `json:"utilization_pct,omitempty"`

	// Kernels are the per-kernel rates of a -stage apply run; nil for
	// every other stage. benchguard compares entries by name.
	Kernels []kernelRate `json:"kernels,omitempty"`

	// Stages is the per-stage ledger of a -stage full run; nil for every
	// other stage. benchguard compares entries by name.
	Stages []stageRate `json:"stages,omitempty"`

	// Reconcile is the model-vs-measured report of one extra traced rep
	// (shared-memory ge2bnd runs only): the simulated makespan of the
	// same DAG converted to seconds at the measured kernel rate, next to
	// the traced wall clock and per-kind GFLOP/s. Informational — the
	// regression comparison (cmd/benchguard) ignores it.
	Reconcile *critpath.ReconcileReport `json:"reconcile,omitempty"`

	// CommFit and CommReconcile carry the measured α-β communication
	// model of an -exp commcal run (traced cluster jobs on a loopback-TCP
	// mesh) and its measured-vs-modeled wire-time reconcile. Like
	// Reconcile, they are diagnostic: benchguard accepts the schema but
	// never compares them.
	CommFit       *machine.CommFit     `json:"comm_fit,omitempty"`
	CommReconcile *critpath.CommReport `json:"comm_reconcile,omitempty"`
}

// runPerf executes one real GE2BND (reps times, best wall time kept),
// prints the human-readable line, and optionally writes the JSON record.
func runPerf(m, n, nb, workers, nodes, gridR, gridC, reps int, jsonPath string) error {
	if reps < 1 {
		reps = 1
	}
	rng := rand.New(rand.NewSource(42))
	rows, cols := m, n
	if rows < cols {
		rows, cols = cols, rows // GE2BND transposes internally; flops follow
	}
	a := bidiag.NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	opts := &bidiag.Options{NB: nb, Workers: workers, Algorithm: bidiag.Bidiag}
	tree := opts.Tree.String()
	if nodes > 0 {
		opts.Distributed = &bidiag.DistOptions{Nodes: nodes, GridRows: gridR, GridCols: gridC}
		// Options.Tree is superseded by the hierarchical distributed trees;
		// record what actually runs, not the ignored shared-memory knob.
		tree = "Hierarchical"
	}
	res := perfResult{
		Experiment: "ge2bnd", M: m, N: n, NB: nb, Workers: workers,
		Tree: tree, Algorithm: opts.Algorithm.String(), Reps: reps,
	}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		band, err := bidiag.GE2BND(a, opts)
		wall := time.Since(start)
		if err != nil {
			return err
		}
		if wall < best {
			best = wall
		}
		res.Tasks = band.TasksExecuted
		if d := band.Dist; d != nil {
			res.Nodes, res.GridRows, res.GridCols = d.Nodes, d.GridRows, d.GridCols
			res.CommCount, res.CommVolume = d.CommCount, d.CommVolume
			res.PayloadBytes = d.PayloadBytes
			res.UtilizationPct = 100 * d.Utilization
		}
	}
	flops := baseline.PaperFlops(rows, cols)
	res.WallSeconds = best.Seconds()
	res.GFlops = flops / 1e9 / res.WallSeconds
	if nodes == 0 {
		// One extra traced rep, after the timed ones so the ring buffers
		// never taint the wall figures, reconciles the run against the
		// flop model (trees.Auto matches the public API's default tree).
		rep, _, err := experiments.ReconcileRun(trees.Auto, rows, cols, nb, workers, 0, false)
		if err != nil {
			return err
		}
		res.Reconcile = rep
		fmt.Printf("reconcile: measured %.3fs vs predicted %.3fs (ratio %.2f)  util %.1f%%  %.2f GFLOP/s traced\n",
			rep.WallSeconds, rep.PredictedWallSeconds, rep.MakespanRatio,
			rep.UtilizationPct, rep.MeasuredGFlops)
	}
	fmt.Printf("GE2BND %dx%d nb=%d workers=%d", m, n, nb, workers)
	if res.Nodes > 0 {
		fmt.Printf(" nodes=%d grid=%dx%d", res.Nodes, res.GridRows, res.GridCols)
	}
	fmt.Printf(": %.3fs  %.2f GFLOP/s  (%d tasks, best of %d)\n",
		res.WallSeconds, res.GFlops, res.Tasks, reps)
	if res.CommCount > 0 {
		fmt.Printf("comm: %d messages, %.2f MB modeled, %.2f MB payload\n",
			res.CommCount, res.CommVolume/1e6, float64(res.PayloadBytes)/1e6)
	}
	return writeResult(res, jsonPath)
}

// runCommCal runs the communication calibration (traced 2-rank cluster
// jobs over loopback TCP), prints the per-link fit table, and writes
// both the CSV and the machine-readable cluster record
// (BENCH_cluster_2rank.json) into outDir. The record's headline rate is
// the largest traced job's GFLOP/s — a real 2-rank wall-clock figure —
// so benchguard's schema check accepts it; the fit and reconcile ride
// along as diagnostic fields it never compares.
func runCommCal(small bool, outDir string) error {
	res, tbl, err := experiments.CommCal(experiments.Scale{Small: small})
	if err != nil {
		return err
	}
	fmt.Println(tbl.Text())
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	csvPath := filepath.Join(outDir, tbl.Name+".csv")
	if err := os.WriteFile(csvPath, []byte(tbl.CSV()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", csvPath)

	fit := res.Fit
	rec := perfResult{
		Experiment: "cluster", M: res.LargestM, N: res.LargestN, NB: res.LargestNB,
		Workers: res.WPN, Reps: 1, Tree: "Hierarchical",
		Nodes: res.GridRows * res.GridCols, GridRows: res.GridRows, GridCols: res.GridCols,
		WallSeconds:   res.LargestWall,
		GFlops:        res.LargestFlops / 1e9 / res.LargestWall,
		CommFit:       &fit,
		CommReconcile: res.Reconcile,
	}
	fmt.Printf("commcal: pooled fit α %.1fµs β %.2f GB/s over %d samples; reconcile ratio %.2f (model ratio %.2f)\n",
		fit.AlphaSeconds*1e6, fit.BytesPerSecond/1e9, fit.Samples,
		res.Reconcile.Ratio, res.ModelReconcile.Ratio)
	return writeResult(rec, filepath.Join(outDir, "BENCH_cluster_2rank.json"))
}

// kernelRate is one entry of a -stage apply record: a single kernel's
// best measured rate. WallSeconds is the best seconds-per-call.
type kernelRate struct {
	Kernel      string  `json:"kernel"`
	GFlops      float64 `json:"gflops"`
	WallSeconds float64 `json:"wall_seconds"`
}

// runPerfApply rates the four Householder-apply kernels in isolation at
// tile size nb: the same steady-state loop the package benchmarks run
// (factored reflectors applied to random trailing tiles with a warm
// workspace), best rate of reps kept per kernel. The record's top-level
// GFLOP/s is the flop-weighted aggregate — total apply flops over the
// summed best per-call times — so the headline figure moves only when
// the kernels themselves do.
func runPerfApply(nb, reps int, jsonPath string) error {
	if reps < 1 {
		reps = 1
	}
	rng := rand.New(rand.NewSource(42))
	mk := func() *nla.Matrix { return nla.RandomMatrix(rng, nb, nb) }
	tau := make([]float64, nb)

	// UNMQR / TSMQR: column reflectors from GEQRT / TSQRT.
	aq := mk()
	tq := nla.NewMatrix(nb, nb)
	kernels.GEQRT(aq, tq, tau, nil)
	cq := mk()

	ats1, ats2 := mk(), mk()
	for j := 0; j < nb; j++ {
		for i := j + 1; i < nb; i++ {
			ats1.Set(i, j, 0)
		}
	}
	tts := nla.NewMatrix(nb, nb)
	kernels.TSQRT(ats1, ats2, tts, tau, nil)
	cts1, cts2 := mk(), mk()

	// UNMLQ / TSMLQ: row reflectors from GELQT / TSLQT.
	al := mk()
	tl := nla.NewMatrix(nb, nb)
	kernels.GELQT(al, tl, tau, nil)
	cl := mk()

	atl1, atl2 := mk(), mk()
	for j := 0; j < nb; j++ {
		for i := 0; i < j; i++ {
			atl1.Set(i, j, 0)
		}
	}
	ttl := nla.NewMatrix(nb, nb)
	kernels.TSLQT(atl1, atl2, ttl, tau, nil)
	ctl1, ctl2 := mk(), mk()

	cases := []struct {
		kind  kernels.Kind
		flops float64
		run   func(ws *nla.Workspace)
	}{
		{kernels.UNMQRKind, kernels.FlopsUNMQR(nb, nb, nb),
			func(ws *nla.Workspace) { kernels.UNMQR(true, nb, aq, tq, cq, ws) }},
		{kernels.TSMQRKind, kernels.FlopsTSMQR(nb, nb, nb),
			func(ws *nla.Workspace) { kernels.TSMQR(true, nb, ats2, tts, cts1, cts2, ws) }},
		{kernels.UNMLQKind, kernels.FlopsUNMLQ(nb, nb, nb),
			func(ws *nla.Workspace) { kernels.UNMLQ(true, nb, al, tl, cl, ws) }},
		{kernels.TSMLQKind, kernels.FlopsTSMLQ(nb, nb, nb),
			func(ws *nla.Workspace) { kernels.TSMLQ(true, nb, atl2, ttl, ctl1, ctl2, ws) }},
	}

	res := perfResult{
		Experiment: "apply", M: nb, N: nb, NB: nb, Workers: 1, Reps: reps,
	}
	var totalFlops, totalSecs float64
	for _, tc := range cases {
		ws := nla.NewWorkspace(kernels.ScratchSize(tc.kind, nb, nb, nb))
		tc.run(ws) // warm
		// Enough iterations per rep that the timer resolution is noise.
		iters := int(5e7/tc.flops) + 1
		best := time.Duration(1<<63 - 1)
		for r := 0; r < reps; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				tc.run(ws)
			}
			if wall := time.Since(start); wall < best {
				best = wall
			}
		}
		perCall := best.Seconds() / float64(iters)
		kr := kernelRate{
			Kernel:      tc.kind.String(),
			GFlops:      tc.flops / 1e9 / perCall,
			WallSeconds: perCall,
		}
		res.Kernels = append(res.Kernels, kr)
		totalFlops += tc.flops
		totalSecs += perCall
		fmt.Printf("%-6s nb=%d: %8.2f GFLOP/s  (%.1f µs/call, best of %d)\n",
			kr.Kernel, nb, kr.GFlops, 1e6*perCall, reps)
	}
	res.WallSeconds = totalSecs
	res.GFlops = totalFlops / 1e9 / totalSecs
	fmt.Printf("APPLY nb=%d: %.2f GFLOP/s aggregate over %d kernels\n",
		nb, res.GFlops, len(res.Kernels))
	return writeResult(res, jsonPath)
}

// writeResult prints and optionally persists one perf record.
func writeResult(res perfResult, jsonPath string) error {
	if jsonPath == "" {
		return nil
	}
	res.Schema = currentSchema
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if jsonPath == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(jsonPath, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", jsonPath)
	return nil
}

// runPerfBND2BD times the pipelined second stage on a random n×n band of
// bandwidth ku (the shape GE2BND emits for nb = ku): graph build +
// execution on `workers` workers, best of reps, rated against the fixed
// count band.ModelFlops so the GFLOP/s figure is comparable across
// machines, commits and chase algorithms.
func runPerfBND2BD(n, ku, workers, reps int, jsonPath string) error {
	if reps < 1 {
		reps = 1
	}
	rng := rand.New(rand.NewSource(42))
	b := bandRandom(rng, n, ku)
	res := perfResult{
		Experiment: "bnd2bd", M: n, N: n, KU: ku, Workers: workers, Reps: reps,
	}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		g := sched.NewGraph()
		finish := band.BuildReduceGraph(g, b, 0)
		if err := g.RunParallel(workers); err != nil {
			return err
		}
		out := finish()
		wall := time.Since(start)
		if out.KU > 1 {
			return fmt.Errorf("bnd2bd: result not bidiagonal")
		}
		if wall < best {
			best = wall
		}
		res.Tasks = len(g.Tasks)
	}
	res.WallSeconds = best.Seconds()
	res.GFlops = band.ModelFlops(n, ku) / 1e9 / res.WallSeconds
	fmt.Printf("BND2BD n=%d ku=%d workers=%d: %.3fs  %.2f GFLOP/s  (%d tasks, best of %d)\n",
		n, ku, workers, res.WallSeconds, res.GFlops, res.Tasks, reps)
	return writeResult(res, jsonPath)
}

// runPerfFull times the end-to-end singular value pipeline
// (GE2BND + BND2BD + BD2VAL) through the public API — fused into one
// task graph by default, or staged behind a barrier with -staged — and
// rates it against the modeled flops of both reduction stages (the
// GE2BND operation count plus the BND2BD count; the closing QR
// iteration rides along in the wall time as it does for every user).
// Each rep also times one staged pass stage by stage (stagedPass); the
// pass with the least total time fills the record's stages array.
func runPerfFull(m, n, nb, workers, window, reps int, fused bool, jsonPath string) error {
	if reps < 1 {
		reps = 1
	}
	rng := rand.New(rand.NewSource(42))
	rows, cols := m, n
	if rows < cols {
		rows, cols = cols, rows // the pipeline transposes internally; flops follow
	}
	a := bidiag.NewDense(m, n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	opts := &bidiag.Options{NB: nb, Workers: workers, Algorithm: bidiag.Bidiag,
		Fused: fused, BND2BDWindow: window}
	res := perfResult{
		Experiment: "full", M: m, N: n, NB: nb, Workers: workers,
		Tree: opts.Tree.String(), Algorithm: opts.Algorithm.String(),
		Reps: reps, Fused: fused,
	}
	best := time.Duration(1<<63 - 1)
	var nsv int
	var stages [3]time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		sv, err := bidiag.SingularValues(a, opts)
		wall := time.Since(start)
		if err != nil {
			return err
		}
		nsv = len(sv)
		if wall < best {
			best = wall
		}
		pass, err := stagedPass(a, *opts)
		if err != nil {
			return err
		}
		if r == 0 || pass[0]+pass[1]+pass[2] < stages[0]+stages[1]+stages[2] {
			stages = pass
		}
	}
	if nsv != cols {
		return fmt.Errorf("full: got %d singular values, want %d", nsv, cols)
	}
	flops := baseline.PaperFlops(rows, cols) + band.ModelFlops(cols, nb)
	res.WallSeconds = best.Seconds()
	res.GFlops = flops / 1e9 / res.WallSeconds
	mode := "fused"
	if !fused {
		mode = "staged"
	}
	fmt.Printf("GE2VAL %dx%d nb=%d workers=%d %s: %.3fs  %.2f GFLOP/s  (best of %d)\n",
		m, n, nb, workers, mode, res.WallSeconds, res.GFlops, reps)
	stageFlops := [3]float64{
		baseline.PaperFlops(rows, cols),
		band.ModelFlops(cols, nb),
		30 * float64(cols) * float64(cols), // machine.BD2VALTime's count
	}
	for k, name := range [3]string{"GE2BND", "BND2BD", "BD2VAL"} {
		s := stageRate{Stage: name, WallSeconds: stages[k].Seconds(), GFlops: stageFlops[k] / 1e9 / stages[k].Seconds()}
		res.Stages = append(res.Stages, s)
		fmt.Printf("  staged %-6s %.3fs  %.2f GFLOP/s\n", name, s.WallSeconds, s.GFlops)
	}
	return writeResult(res, jsonPath)
}

// stageRate is one entry of a -stage full record's stages array: one
// stage's seconds and rate in the recorded staged pass.
type stageRate struct {
	Stage       string  `json:"stage"`
	WallSeconds float64 `json:"wall_seconds"`
	GFlops      float64 `json:"gflops"`
}

// stagedPass runs the singular value pipeline once more, staged, and
// times its three stages separately: GE2BND through the public API, the
// pipelined BND2BD on the resulting band (the copy out of the public
// Band is not timed), and the bidiagonal QR iteration.
func stagedPass(a *bidiag.Dense, opts bidiag.Options) (secs [3]time.Duration, err error) {
	opts.Fused = false
	start := time.Now()
	b, err := bidiag.GE2BND(a, &opts)
	if err != nil {
		return secs, err
	}
	secs[0] = time.Since(start)
	bm := band.New(b.N(), b.Bandwidth())
	for i := 0; i < bm.N; i++ {
		for j := i; j <= min(i+bm.KU, bm.N-1); j++ {
			bm.Set(i, j, b.At(i, j))
		}
	}
	start = time.Now()
	p := pipeline.BuildBND2BD(bm, opts.BND2BDWindow)
	if _, err := pipeline.Run(p, pipeline.Pool{Workers: opts.Workers}); err != nil {
		return secs, err
	}
	d, e := p.Bidiagonal().Bidiagonal()
	secs[1] = time.Since(start)
	start = time.Now()
	if _, err := bdsqr.SingularValues(d, e); err != nil {
		return secs, err
	}
	secs[2] = time.Since(start)
	return secs, nil
}

// runPerfBatch measures serving throughput over a ragged small-matrix
// workload: `jobs` random matrices with dimensions in [n/2, n], all
// submitted to one bidiag.Service. Two modes run on identically sized
// pools: sequential (one Do at a time, gang batching off — the
// pool drains between jobs) and batched (everything submitted at once,
// gang batching on — small graphs pack into shared wavefronts). The
// batched jobs/s is the tracked figure; p50/p99 are client-observed
// latencies of the batched run. With gate, the run fails unless batched
// beats sequential — the CI acceptance check.
func runPerfBatch(n, nb, workers, jobs, reps int, gate bool, jsonPath string) error {
	if reps < 1 {
		reps = 1
	}
	if jobs < 1 {
		jobs = 64
	}
	rng := rand.New(rand.NewSource(42))
	mats := make([]*bidiag.Dense, jobs)
	for i := range mats {
		m := n/2 + rng.Intn(n/2+1)
		c := n/2 + rng.Intn(n/2+1)
		a := bidiag.NewDense(m, c)
		for j := 0; j < c; j++ {
			for r := 0; r < m; r++ {
				a.Set(r, j, rng.NormFloat64())
			}
		}
		mats[i] = a
	}
	opts := &bidiag.Options{NB: nb, Workers: workers, Algorithm: bidiag.Bidiag}

	// Sequential baseline: one call at a time, no gangs, no cache.
	bestSeq := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		svc := bidiag.NewService(&bidiag.ServiceConfig{
			Workers: workers, CacheBytes: -1, GangDim: -1, QueueDepth: jobs + 1,
		})
		start := time.Now()
		for i := range mats {
			if _, err := svc.Do(context.Background(), bidiag.JobRequest{A: mats[i], Opts: opts}); err != nil {
				svc.Close()
				return err
			}
		}
		wall := time.Since(start)
		svc.Close()
		if wall < bestSeq {
			bestSeq = wall
		}
	}

	// Batched: all jobs in flight at once, gang batching on.
	bestBatch := time.Duration(1<<63 - 1)
	var bestLats []time.Duration
	for r := 0; r < reps; r++ {
		svc := bidiag.NewService(&bidiag.ServiceConfig{
			Workers: workers, CacheBytes: -1, GangDim: n, QueueDepth: jobs + 1,
		})
		lats := make([]time.Duration, jobs)
		errs := make([]error, jobs)
		var wg sync.WaitGroup
		start := time.Now()
		for i := range mats {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				begin := time.Now()
				_, errs[i] = svc.Do(context.Background(), bidiag.JobRequest{A: mats[i], Opts: opts})
				lats[i] = time.Since(begin)
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		svc.Close()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if wall < bestBatch {
			bestBatch = wall
			bestLats = lats
		}
	}

	sort.Slice(bestLats, func(i, j int) bool { return bestLats[i] < bestLats[j] })
	p50 := bestLats[(jobs-1)*50/100]
	p99 := bestLats[(jobs-1)*99/100]
	res := perfResult{
		Experiment: "batch", M: n, N: n, NB: nb, Workers: workers,
		Jobs: jobs, Reps: reps,
		WallSeconds:   bestBatch.Seconds(),
		JobsPerSec:    float64(jobs) / bestBatch.Seconds(),
		SeqJobsPerSec: float64(jobs) / bestSeq.Seconds(),
		P50Ms:         float64(p50) / float64(time.Millisecond),
		P99Ms:         float64(p99) / float64(time.Millisecond),
	}
	speedup := res.JobsPerSec / res.SeqJobsPerSec
	fmt.Printf("BATCH dim≤%d nb=%d workers=%d jobs=%d: %.1f jobs/s batched vs %.1f jobs/s sequential (%.2fx)  p50 %.1fms  p99 %.1fms  (best of %d)\n",
		n, nb, workers, jobs, res.JobsPerSec, res.SeqJobsPerSec, speedup, res.P50Ms, res.P99Ms, reps)
	if err := writeResult(res, jsonPath); err != nil {
		return err
	}
	if gate && res.JobsPerSec <= res.SeqJobsPerSec {
		return fmt.Errorf("batch: gang-batched throughput %.1f jobs/s does not beat sequential %.1f jobs/s",
			res.JobsPerSec, res.SeqJobsPerSec)
	}
	return nil
}

// bandRandom fills an n×n band of bandwidth ku with uniform(-1, 1).
func bandRandom(rng *rand.Rand, n, ku int) *band.Matrix {
	b := band.New(n, ku)
	for i := 0; i < n; i++ {
		for j := i; j <= i+b.KU && j < n; j++ {
			b.Set(i, j, 2*rng.Float64()-1)
		}
	}
	return b
}

func main() {
	exp := flag.String("exp", "", "experiment to run (or 'all')")
	scale := flag.String("scale", "full", "problem sizes: full (paper) or small (laptop)")
	out := flag.String("out", "experiments-out", "directory for CSV output")
	list := flag.Bool("list", false, "list experiments and exit")
	nodes := flag.Int("nodes", 0, "run the real distributed executor on this many in-process nodes")
	gridSpec := flag.String("grid", "", "process grid RxC for -nodes (default: near-square)")
	mFlag := flag.Int("m", 0, "rows for a one-shot timed GE2BND run (enables perf mode)")
	nFlag := flag.Int("n", 0, "columns for the timed run (default: m)")
	nbFlag := flag.Int("nb", 64, "tile size for the timed run")
	kuFlag := flag.Int("ku", 64, "band width for a -stage bnd2bd timed run")
	stage := flag.String("stage", "ge2bnd", "timed-run stage: ge2bnd, bnd2bd, full (fused end-to-end pipeline), batch (service throughput), or apply (isolated Householder-apply kernel rates)")
	jobsFlag := flag.Int("jobs", 64, "workload size for a -stage batch timed run")
	gateFlag := flag.Bool("gate", false, "-stage batch: fail unless batched throughput beats sequential")
	windowFlag := flag.Int("window", 0, "BND2BD wavefront window for -stage full (0: default)")
	staged := flag.Bool("staged", false, "run -stage full through the staged (barrier) path instead of the fused graph")
	workersFlag := flag.Int("workers", runtime.GOMAXPROCS(0), "workers for the timed run")
	repsFlag := flag.Int("reps", 3, "repetitions of the timed run (best kept)")
	jsonOut := flag.String("json", "", "write the timed-run result as JSON to this file ('-' for stdout)")
	flag.Parse()

	// Any timed-run flag selects perf mode, so none is silently ignored.
	perfMode := false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "m", "n", "nb", "ku", "stage", "window", "staged", "workers", "reps", "json", "jobs", "gate":
			perfMode = true
		}
	})
	if perfMode {
		if *exp != "" {
			fmt.Fprintln(os.Stderr, "-exp and the timed-run flags (-m/-n/-nb/-ku/-stage/-window/-staged/-workers/-reps/-json) are mutually exclusive")
			os.Exit(2)
		}
		var err error
		switch *stage {
		case "apply":
			err = runPerfApply(*nbFlag, *repsFlag, *jsonOut)
		case "full":
			m, n := *mFlag, *nFlag
			if m <= 0 {
				m = 1024
			}
			if n <= 0 {
				n = m
			}
			err = runPerfFull(m, n, *nbFlag, *workersFlag, *windowFlag, *repsFlag, !*staged, *jsonOut)
		case "batch":
			n := *nFlag
			if n <= 0 {
				n = *mFlag
			}
			if n <= 0 {
				n = 256
			}
			err = runPerfBatch(n, *nbFlag, *workersFlag, *jobsFlag, *repsFlag, *gateFlag, *jsonOut)
		case "bnd2bd":
			n := *nFlag
			if n <= 0 {
				n = *mFlag
			}
			if n <= 0 {
				n = 4096
			}
			err = runPerfBND2BD(n, *kuFlag, *workersFlag, *repsFlag, *jsonOut)
		case "ge2bnd":
			m, n := *mFlag, *nFlag
			if m <= 0 {
				m = 1024
			}
			if n <= 0 {
				n = m
			}
			var gr, gc int
			gr, gc, err = parseGrid(*gridSpec)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			err = runPerf(m, n, *nbFlag, *workersFlag, *nodes, gr, gc, *repsFlag, *jsonOut)
		default:
			fmt.Fprintf(os.Stderr, "unknown -stage %q; want ge2bnd, bnd2bd, full, batch or apply\n", *stage)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *nodes > 0 {
		gr, gc, err := parseGrid(*gridSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc := experiments.Scale{Small: *scale == "small"}
		tbl := experiments.DistExec(sc, *nodes, gr, gc)
		fmt.Println(tbl.Text())
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		path := filepath.Join(*out, tbl.Name+".csv")
		if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
		return
	}

	if *list || *exp == "" {
		fmt.Println("experiments:", strings.Join(append(names(), "commcal", "planner"), " "))
		if *exp == "" {
			os.Exit(2)
		}
		return
	}

	// Planner evaluation is its own branch: it runs real wall-clock
	// sweeps and emits planner.json rather than a Table CSV.
	if *exp == "planner" {
		if err := runPlannerEval(*scale == "small", *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	// Communication calibration is its own branch too: it runs real
	// traced cluster jobs over loopback TCP and emits the BENCH cluster
	// record next to the CSV.
	if *exp == "commcal" {
		if err := runCommCal(*scale == "small", *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	sc := experiments.Scale{Small: *scale == "small"}

	var selected []string
	if *exp == "all" {
		selected = names()
	} else {
		for _, e := range strings.Split(*exp, ",") {
			if _, ok := registry[e]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", e)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, name := range selected {
		start := time.Now()
		tables := registry[name](sc)
		for _, t := range tables {
			fmt.Println(t.Text())
			path := filepath.Join(*out, t.Name+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Printf("(%s took %.1fs)\n\n", name, time.Since(start).Seconds())
	}
}
