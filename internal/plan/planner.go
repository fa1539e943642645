package plan

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/kernels"
	"github.com/tiled-la/bidiag/internal/machine"
	"github.com/tiled-la/bidiag/internal/nla"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/trees"
)

// Kind is what the planned job computes; it decides which stages the
// pricing accounts for.
type Kind int

const (
	// KindBand plans the GE2BND stage only (the band is the result).
	KindBand Kind = iota
	// KindValues plans the full singular-value pipeline:
	// GE2BND + BND2BD, fused or staged.
	KindValues
	// KindSVD plans the vector-bearing decomposition: the recorded
	// GE2BND stage (never fused — the recorder needs the staged band).
	KindSVD
)

func (k Kind) String() string {
	switch k {
	case KindBand:
		return "band"
	case KindValues:
		return "values"
	case KindSVD:
		return "svd"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Alg pins the algorithm choice of a Request.
type Alg int

const (
	// AlgAuto lets the planner choose between BIDIAG and R-BIDIAG.
	AlgAuto Alg = iota
	// AlgBidiag pins direct bidiagonalization.
	AlgBidiag
	// AlgRBidiag pins R-bidiagonalization (QR first).
	AlgRBidiag
)

// Request is one planning problem. Zero-valued knobs are free for the
// planner to choose; nonzero values pin them. Request is comparable, so
// it doubles as a memoization and profile key ingredient.
type Request struct {
	// M, N are the matrix dimensions. The planner normalizes to M ≥ N
	// (singular values are transpose-invariant, and every execution
	// path transposes wide inputs first).
	M, N int
	// Workers is the core count the plan will run on (≤ 0: 1).
	Workers int
	// Kind selects the stages the pricing accounts for.
	Kind Kind

	// NB pins the tile size when > 0.
	NB int
	// Tree pins the reduction tree when TreeSet is true.
	Tree    trees.Kind
	TreeSet bool
	// Window pins the BND2BD wavefront window when > 0.
	Window int
	// Gemm pins the packed-GEMM cache blocking when nonzero.
	Gemm nla.Blocking
	// Alg pins direct vs R-bidiagonalization.
	Alg Alg
	// FuseOnly restricts candidates to fused plans (the serving layer's
	// staged path is the sequential reference, so it prices fused only).
	FuseOnly bool
	// StagedOnly restricts candidates to staged plans (a pinned
	// sequential BND2BD cannot fuse). StagedOnly wins over FuseOnly.
	StagedOnly bool
}

// normalized returns the request with M ≥ N and Workers ≥ 1.
func (r Request) normalized() Request {
	if r.M < r.N {
		r.M, r.N = r.N, r.M
	}
	if r.Workers < 1 {
		r.Workers = 1
	}
	return r
}

// Config is one concrete, executable configuration. Every Config the
// planner emits is valid for its request's shape: NB ∈ [1, min(m,n)],
// Window ≥ 0, and a tree the runtime accepts.
type Config struct {
	NB      int        `json:"nb"`
	Tree    trees.Kind `json:"tree"`
	Window  int        `json:"window"`
	Fused   bool       `json:"fused"`
	RBidiag bool       `json:"rbidiag"`
	// Gemm is the packed-GEMM cache blocking; the zero value selects
	// nla.DefaultBlocking. The cost model cannot distinguish blockings
	// (stage-1 pricing keys ignore it), so the non-default variant only
	// wins through the tuner's measurements, never at ModelPick ties.
	Gemm nla.Blocking `json:"gemm"`
}

func (c Config) String() string {
	mode := "staged"
	if c.Fused {
		mode = "fused"
	}
	alg := "bidiag"
	if c.RBidiag {
		alg = "rbidiag"
	}
	s := fmt.Sprintf("nb=%d tree=%s window=%d %s %s", c.NB, c.Tree, c.Window, mode, alg)
	if c.Gemm != (nla.Blocking{}) {
		s += fmt.Sprintf(" gemm=%dx%dx%d", c.Gemm.MC, c.Gemm.KC, c.Gemm.NC)
	}
	return s
}

// Rates is the per-kernel pricing table: flop/s per kernel kind at the
// asymptotic (large-nb) rate, plus a per-task scheduling overhead in
// seconds. The nb/(nb+40) cache-blocking ramp of the machine model is
// applied on top during pricing.
type Rates struct {
	PerKind      [16]float64
	TaskOverhead float64
}

// SeedRates returns the pricing table of the calibrated machine model:
// peak per-core GEMM rate × per-kernel efficiency, and a 2µs task
// overhead so tiny tiles do not look free.
func SeedRates() Rates {
	m := machine.Miriel()
	var r Rates
	for k := range r.PerKind {
		eff := m.Eff[k]
		if eff <= 0 {
			eff = 0.5
		}
		r.PerKind[k] = m.PeakPerCore * eff
	}
	r.TaskOverhead = 2e-6
	return r
}

// candidate tile sizes: the machine model's nb/(nb+40) ramp flattens
// past ~128, and Table I weights grow as nb³ — this bracket covers the
// efficiency knee without exploding the DAG.
var nbCandidates = [...]int{32, 48, 64, 96, 128}

// treeCandidates are the shared-memory trees the paper compares for
// bidiagonalization (Section V); FlatTT is dominated by Greedy on every
// measured shape, so it is only priced when pinned.
var treeCandidates = [...]trees.Kind{trees.Auto, trees.FlatTS, trees.Greedy}

// altBlocking is the one non-default GEMM cache blocking the planner
// offers: a tighter L2-resident panel set for the tile-sized operands
// the apply kernels feed the packed GEMM (the defaults assume large
// operands). Only enumerated at nb ≥ altBlockingMinNB — below that the
// TSMQR GEMM half fits the default MC×KC panel outright and the
// variant merely doubles the candidate count.
var altBlocking = nla.Blocking{MC: 64, KC: 128, NC: 256}

const altBlockingMinNB = 96

// maxPlanTasks bounds the DAG size the planner will build for pricing:
// planning must stay a few hundred milliseconds, and each candidate
// tile size costs a graph construction plus a list-scheduling pass.
// Tile sizes whose estimated task count (~2·p·q²) exceed the budget are
// skipped from enumeration (the largest tile size always stays so
// every request gets a plan) — for 1024² that trims nb = 32, whose
// 65k-task DAGs would dominate the planning time for a marginal
// pricing gain. When even the surviving sizes exceed the budget (huge
// matrices), the pricer switches every candidate to the closed-form
// cost model so the ranking stays apples-to-apples.
const maxPlanTasks = 50_000

// taskEstimate approximates the GE2BND task count for an m×n matrix at
// tile size nb: q panels of ~p·q update work.
func taskEstimate(m, n, nb int) int {
	p := (m + nb - 1) / nb
	q := (n + nb - 1) / nb
	return 2 * p * q * q
}

// Enumerate returns the candidate configurations of a request in a
// deterministic order, honoring its pins. It never returns an empty
// slice for a nonempty shape.
func Enumerate(req Request) []Config {
	req = req.normalized()
	if req.M <= 0 || req.N <= 0 {
		return nil
	}
	minDim := req.N

	var nbs []int
	if req.NB > 0 {
		nbs = []int{min(req.NB, minDim)}
	} else {
		for _, nb := range nbCandidates {
			if nb <= minDim && taskEstimate(req.M, req.N, nb) <= maxPlanTasks {
				nbs = append(nbs, nb)
			}
		}
		if len(nbs) == 0 {
			// Sub-tile matrices (minDim < 32) collapse to one tile; huge
			// matrices keep the coarsest tile size that fits the budget.
			nb := min(nbCandidates[len(nbCandidates)-1], minDim)
			nbs = []int{nb}
		}
	}

	var tks []trees.Kind
	if req.TreeSet {
		tks = []trees.Kind{req.Tree}
	} else {
		tks = treeCandidates[:]
	}

	// A second-stage window only matters when a chase is priced and the
	// narrower width can pipeline deeper than the default.
	windows := []int{0}
	if req.Window > 0 {
		windows = []int{req.Window}
	} else if req.Kind == KindValues && req.Workers > 1 && band.DefaultWindow(minDim) > 64 {
		windows = []int{0, 64}
	}

	algs := []bool{false}
	switch {
	case req.Alg == AlgBidiag:
	case req.Alg == AlgRBidiag:
		algs = []bool{true}
	case 3*req.M >= 5*req.N && req.M > req.N:
		// Chan's rule says the QR prefactorization can pay; price both.
		algs = []bool{false, true}
	}

	var fuseds []bool
	switch {
	case req.Kind != KindValues:
		fuseds = []bool{false} // no chase in the priced graph
	case req.StagedOnly:
		fuseds = []bool{false}
	case req.FuseOnly:
		fuseds = []bool{true}
	default:
		fuseds = []bool{false, true}
	}

	var out []Config
	for _, rb := range algs {
		for _, nb := range nbs {
			// The default blocking enumerates first so ModelPick's stable
			// tie-break keeps it (the pricer cannot tell blockings apart);
			// the alternate rides along for the tuner to measure.
			gemms := []nla.Blocking{{}}
			if req.Gemm != (nla.Blocking{}) {
				gemms = []nla.Blocking{req.Gemm}
			} else if nb >= altBlockingMinNB {
				gemms = append(gemms, altBlocking)
			}
			for _, tk := range tks {
				for _, win := range windows {
					for _, fu := range fuseds {
						for _, gm := range gemms {
							out = append(out, Config{NB: nb, Tree: tk, Window: win, Fused: fu, RBidiag: rb, Gemm: gm})
						}
					}
				}
			}
		}
	}
	return out
}

// Candidate is one priced configuration.
type Candidate struct {
	Config Config
	// Cost is the modeled execution time in seconds on Workers cores.
	Cost float64
	// Tasks is the task count of the priced DAG(s).
	Tasks int
}

// pricer caches the per-stage simulations shared between candidates of
// one request: stage 1 depends on (nb, tree, rbidiag), stage 2 on
// (nb, window), the fused graph on all four.
type pricer struct {
	req   Request
	rates Rates
	s1    map[Config]Candidate // Window/Fused zeroed in key
	s2    map[Config]Candidate // only NB/Window set in key
}

func (p *pricer) timeOf(nb int) func(*sched.Task) float64 {
	ramp := machine.NBRamp(nb)
	rates := p.rates
	return func(t *sched.Task) float64 {
		if t.Flops == 0 {
			return rates.TaskOverhead
		}
		r := rates.PerKind[t.Kind]
		if r <= 0 {
			r = rates.PerKind[0]
		}
		return t.Flops/(r*ramp) + rates.TaskOverhead
	}
}

func (p *pricer) simulate(g *sched.Graph, nb int) Candidate {
	res := g.SimulateFixed(p.req.Workers, p.timeOf(nb))
	return Candidate{Cost: res.Makespan, Tasks: res.Tasks}
}

// buildCfg is the simulation-only core configuration of one candidate.
func (p *pricer) buildCfg(tree trees.Kind) core.Config {
	return core.Config{Tree: tree, Gamma: 2, Cores: p.req.Workers}
}

// stage1 prices the GE2BND (or R-BIDIAG) DAG alone by list-scheduling
// the real task graph. Shapes whose DAG exceeds the planning budget
// (Enumerate only lets them through as the coarsest-tile fallback)
// fall back to the closed-form model so planning never stalls on graph
// construction.
func (p *pricer) stage1(c Config) Candidate {
	key := Config{NB: c.NB, Tree: c.Tree, RBidiag: c.RBidiag}
	if v, ok := p.s1[key]; ok {
		return v
	}
	var v Candidate
	if taskEstimate(p.req.M, p.req.N, c.NB) > maxPlanTasks {
		v = p.stage1Formula(c)
	} else {
		sp := pipeline.Spec{
			Shape:   core.ShapeOf(p.req.M, p.req.N, c.NB),
			Config:  p.buildCfg(c.Tree),
			RBidiag: c.RBidiag,
		}
		v = p.simulate(pipeline.Build(sp).Graph, c.NB)
	}
	p.s1[key] = v
	return v
}

// stage1Formula is the closed-form stage-1 cost for over-budget
// shapes: the leading-order flop count (4n²(m−n/3) for GE2BND;
// QR + square bidiagonalization for R-BIDIAG) at the TSMQR update rate
// — the dominant kernel — with the tile ramp, spread across the
// workers at a modeled 85% utilization, plus the per-task scheduling
// overhead. Trees are indistinguishable at this resolution, so the
// enumeration-order tie-break keeps the runtime default tree.
func (p *pricer) stage1Formula(c Config) Candidate {
	m, n := float64(p.req.M), float64(p.req.N)
	var flops float64
	tasks := taskEstimate(p.req.M, p.req.N, c.NB)
	if c.RBidiag {
		// QR of the m×n input, then GE2BND of the n×n R factor.
		flops = 2*n*n*(m-n/3) + 4*n*n*(n-n/3)
		tasks = tasks/2 + taskEstimate(p.req.N, p.req.N, c.NB)
	} else {
		flops = 4 * n * n * (m - n/3) // baseline.PaperFlops
	}
	rate := p.rates.PerKind[kernels.TSMQRKind] * machine.NBRamp(c.NB)
	workers := float64(p.req.Workers)
	cost := flops/(rate*workers*0.85) + float64(tasks)*p.rates.TaskOverhead/workers
	return Candidate{Cost: cost, Tasks: tasks}
}

// stage2 prices the pipelined bulge chase of the n×n, bandwidth-nb
// band stage 1 leaves behind. The chase DAG is too large to simulate
// at planning time (Θ(n²/nb) tasks — 2.8k at n=1024, nb=48, on top of
// the window handles' dependence inference), so it is priced in closed
// form: the memory-bound work
// 6·n²·nb flops (machine.BND2BDTime's count) over the per-core BRDSEG
// rate times the wavefront parallelism the window permits,
// π = clamp(n/(4·width), 1, workers) — sweeps are spaced a few windows
// apart along the band, so narrower windows admit more concurrent
// sweeps until the worker count caps the gain.
func (p *pricer) stage2(c Config) Candidate {
	key := Config{NB: c.NB, Window: c.Window}
	if v, ok := p.s2[key]; ok {
		return v
	}
	n := float64(p.req.N)
	work := 6 * n * n * float64(c.NB)
	rate := p.rates.PerKind[kernels.BRDSEGKind]
	if rate <= 0 {
		rate = p.rates.PerKind[0]
	}
	width := float64(band.WindowWidth(p.req.N, c.Window))
	par := n / (4 * width)
	par = math.Min(par, float64(p.req.Workers))
	par = math.Max(par, 1)
	v := Candidate{Cost: work / (rate * par)}
	p.s2[key] = v
	return v
}

// fused prices the one-graph GE2BND+BND2BD pipeline as overlap of the
// two stage models: the longer stage hides most of the shorter one,
// with a residual quarter of the shorter stage for the fill and drain
// that cannot overlap (the chase spine lives strictly downstream of
// stage 1's first panels; internal/critpath measures the same
// structure on the real DAG). Simulating the fused graph directly is
// ruled out for the same reason as stage2's chase DAG.
func (p *pricer) fused(c Config) Candidate {
	s1, s2 := p.stage1(c), p.stage2(c)
	t1, t2 := s1.Cost, s2.Cost
	return Candidate{
		Cost:  math.Max(t1, t2) + 0.25*math.Min(t1, t2),
		Tasks: s1.Tasks + s2.Tasks,
	}
}

func (p *pricer) price(c Config) Candidate {
	switch {
	case p.req.Kind != KindValues:
		v := p.stage1(c)
		v.Config = c
		return v
	case c.Fused:
		v := p.fused(c)
		v.Config = c
		return v
	default:
		s1, s2 := p.stage1(c), p.stage2(c)
		return Candidate{Config: c, Cost: s1.Cost + s2.Cost, Tasks: s1.Tasks + s2.Tasks}
	}
}

// PriceAll enumerates and prices every candidate of a request, returned
// cheapest first. Ties preserve enumeration order, so the result is
// deterministic.
func PriceAll(req Request, rates Rates) []Candidate {
	req = req.normalized()
	cfgs := Enumerate(req)
	p := &pricer{req: req, rates: rates, s1: map[Config]Candidate{}, s2: map[Config]Candidate{}}
	out := make([]Candidate, 0, len(cfgs))
	for _, c := range cfgs {
		out = append(out, p.price(c))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}

// modelMemo caches ModelPick resolutions (pure functions of the
// request under seed rates); memoCap bounds it so adversarial shape
// streams cannot grow it without bound.
var (
	modelMemo sync.Map // Request → Config
	memoCount atomic.Int64
)

const memoCap = 512

// ModelPick returns the model's cheapest valid configuration for a
// request under the seed rates. It is deterministic — equal requests
// always resolve to the same Config — and memoized.
func ModelPick(req Request) (Config, error) {
	req = req.normalized()
	if req.M <= 0 || req.N <= 0 {
		return Config{}, fmt.Errorf("plan: empty shape %dx%d", req.M, req.N)
	}
	if v, ok := modelMemo.Load(req); ok {
		return v.(Config), nil
	}
	priced := PriceAll(req, SeedRates())
	if len(priced) == 0 {
		return Config{}, fmt.Errorf("plan: no candidates for %dx%d", req.M, req.N)
	}
	best := priced[0].Config
	if memoCount.Load() < memoCap {
		if _, loaded := modelMemo.LoadOrStore(req, best); !loaded {
			memoCount.Add(1)
		}
	}
	return best, nil
}
