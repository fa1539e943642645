package bidiag

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/tiled-la/bidiag/internal/band"
	"github.com/tiled-la/bidiag/internal/bdsqr"
	"github.com/tiled-la/bidiag/internal/core"
	"github.com/tiled-la/bidiag/internal/jacobi"
	"github.com/tiled-la/bidiag/internal/obs"
	"github.com/tiled-la/bidiag/internal/pipeline"
	"github.com/tiled-la/bidiag/internal/plan"
	"github.com/tiled-la/bidiag/internal/sched"
	"github.com/tiled-la/bidiag/internal/serve"
)

// ErrOverloaded is returned by Service.Submit when the admission queue
// is full; callers should shed load or retry with backoff.
var ErrOverloaded = serve.ErrOverloaded

// ErrServiceClosed is returned by Service.Submit after Close.
var ErrServiceClosed = serve.ErrClosed

// ServiceConfig sizes a Service. The zero value (or a nil pointer)
// selects the defaults.
type ServiceConfig struct {
	// Workers is the shared pool size (default GOMAXPROCS): ONE pool
	// executes every in-flight job, workers picking across jobs by
	// weighted fair share.
	Workers int
	// QueueDepth bounds the admission queues, beyond which Submit fails
	// fast with ErrOverloaded (default 256).
	QueueDepth int
	// MaxInFlight caps concurrently executing jobs (default
	// max(2, Workers)); queued jobs beyond it wait their turn.
	MaxInFlight int
	// CacheBytes budgets the content-addressed result cache: 0 selects
	// 64 MiB, negative disables caching.
	CacheBytes int64
	// GangDim is the largest dimension (max of rows, cols) below which a
	// job is gang-batched: packed with its neighbours into one task
	// graph so tile kernels from different jobs interleave on the same
	// wavefront. 0 selects 256; negative disables gang batching.
	GangDim int
	// GangSize caps the jobs packed into one gang graph (default 16);
	// GangWait is how long a forming gang waits for stragglers
	// (default 2ms).
	GangSize int
	GangWait time.Duration
	// PlanProfiles persists the autotuner's plan profiles at this path
	// (versioned JSON): NewService loads it when present so a restarted
	// service keeps its promoted plans, and promotions and Close save
	// it. Empty keeps the profiles in memory only.
	PlanProfiles string
	// PlanMinSamples is the per-candidate sample count the autotuner
	// requires before promoting a measured winner (0 selects the
	// default, 3; negative disables promotion so every Options.Auto job
	// keeps exploring).
	PlanMinSamples int
	// TraceEventCap bounds each per-worker trace ring of a traced job
	// (JobRequest.Trace). 0 sizes the rings at the job's task count so
	// timelines are always complete; a smaller cap bounds trace memory
	// instead, and events beyond it are dropped and counted in
	// ServiceStats.TraceDropped.
	TraceEventCap int
}

// ServiceStats is a point-in-time snapshot of a Service, mirroring what
// the bidiagd daemon exports at /metrics (Prometheus text) and
// /debug/vars (JSON).
type ServiceStats struct {
	Workers, InFlight                   int
	QueueLen, GangQueueLen, QueueCap    int
	JobsDone, JobsFailed, JobsCancelled uint64
	GangBatches, GangJobs               uint64
	CacheHits, CacheMisses              uint64
	CacheEntries                        int
	CacheBytes, CacheCap                int64
	// WorkspaceBytes is the total scratch-arena footprint of the shared
	// pool's workers.
	WorkspaceBytes int64
	// TraceDropped counts trace-ring events lost across every traced job
	// whose rings overflowed (ServiceConfig.TraceEventCap below the
	// job's task count).
	TraceDropped uint64
	// Latency and QueueWait are bucketed distributions (in seconds) of
	// job latency (enqueue to completion, cache hits included) and queue
	// wait (enqueue to dispatch) over the service's lifetime.
	Latency, QueueWait HistogramStats
	// P50 and P99 are job latencies estimated from the Latency buckets.
	P50, P99 time.Duration
}

// HistogramStats is a snapshot of a fixed-bucket histogram. Bucket i
// counts observations in (Bounds[i-1], Bounds[i]]; Counts has one more
// entry than Bounds for the overflow bucket. The layout maps directly
// onto a Prometheus histogram's cumulative _bucket/_sum/_count series.
type HistogramStats struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the buckets by
// linear interpolation. It returns 0 for an empty histogram.
func (h HistogramStats) Quantile(q float64) float64 {
	return obs.HistogramSnapshot{Bounds: h.Bounds, Counts: h.Counts, Sum: h.Sum, Count: h.Count}.Quantile(q)
}

func toHistogramStats(s obs.HistogramSnapshot) HistogramStats {
	return HistogramStats{Bounds: s.Bounds, Counts: s.Counts, Sum: s.Sum, Count: s.Count}
}

// JobKind selects what a service job computes.
type JobKind int

const (
	// JobSingularValues computes the singular values (SingularValues).
	JobSingularValues JobKind = iota
	// JobSVD computes the thin SVD with singular vectors (SVD).
	JobSVD
)

// JobRequest describes one matrix job submitted to a Service.
type JobRequest struct {
	Kind JobKind
	// A is the input matrix. It must not be modified until the job
	// finishes (the tiling snapshot is taken when the job is dispatched,
	// not at Submit).
	A *Dense
	// Opts configures the reduction exactly as for the one-shot entry
	// points, with two differences: Options.Distributed must be nil
	// (service jobs run on the shared in-process pool), and
	// Options.Workers does NOT size a pool — the service's shared
	// workers do — but still parameterizes the AUTO tree and the
	// reflector application of JobSVD, so it remains part of the result's
	// cache identity. All other fields (NB, Tree, Algorithm, Gamma,
	// Gemm, BND2BD, BND2BDWindow) are honored per job; Fused is ignored
	// (the service fuses whenever BND2BD allows it — the fused and
	// staged paths are bitwise-identical). Options.Auto defers the
	// unset knobs to the service's plan autotuner, which explores the
	// model's best candidates under live traffic and promotes the
	// measured winner (see Options.Auto and ServiceConfig.PlanProfiles).
	Opts *Options
	// Trace records a per-task execution timeline for this job,
	// returned in JobResult.Timeline. A traced job always executes — it
	// runs solo (never gang-batched), bypasses the result cache in both
	// directions, and pays a small bookkeeping cost per task — so the
	// timeline reflects one complete real execution of the job's graph.
	Trace bool
}

// JobResult is a finished service job. Results may be served from the
// result cache and shared between callers: treat them as immutable.
type JobResult struct {
	// Values holds the singular values in descending order (both kinds).
	Values []float64
	// SVD carries the full decomposition for JobSVD (nil otherwise).
	SVD *SVDResult
	// CacheHit reports that the result came from the cache.
	CacheHit bool
	// Timeline is the per-task execution trace of this job, sorted by
	// start time, when JobRequest.Trace was set (nil otherwise).
	Timeline []TaskSpan
}

// TaskSpan is one executed task in a traced job's timeline. Start and
// End are offsets from a common per-job origin, so spans are directly
// comparable within one Timeline.
type TaskSpan struct {
	// Kernel is the tile-kernel name (GEQRT, TSMQR, BRDSEG, …).
	Kernel string
	// Worker is the pool worker that executed the task.
	Worker int
	// I, J, K are the task's tile coordinates (panel, row, column —
	// meaning depends on the kernel).
	I, J, K int
	// Flops is the task's modeled flop count.
	Flops      float64
	Start, End time.Duration
}

// Job is an in-flight service job.
type Job struct {
	inner *serve.Job
}

// Wait blocks until the job finishes.
func (j *Job) Wait() (*JobResult, error) {
	res, err := j.inner.Wait()
	if err != nil {
		return nil, err
	}
	return toJobResult(res)
}

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.inner.Done() }

// Service executes many concurrent reduction jobs over one shared
// elastic worker pool, with bounded admission, per-job cancellation,
// panic isolation, gang batching of small matrices and a
// content-addressed result cache. See the README "Serving" section for
// the architecture; internal/serve documents the semantics in detail.
//
// A Service and every method on it are safe for concurrent use. The
// one-shot entry points (SingularValues, SVD, GE2BND, …) remain safe to
// call concurrently with each other and with a Service — they use
// private pools — but a Service amortizes pool and workspace setup
// across calls and keeps the machine saturated under mixed load.
type Service struct {
	inner   *serve.Service
	gangDim int
	// cacheOff skips cache-key digestion entirely when the cache budget
	// is negative — no point hashing the matrix for a disabled cache.
	cacheOff bool
	// tuner resolves Options.Auto jobs: model-seeded plan selection,
	// refined by the measured GFLOP/s of executed jobs.
	tuner *plan.Tuner
}

// NewService starts a Service with the given configuration (nil selects
// every default). Close releases it.
func NewService(cfg *ServiceConfig) *Service {
	var c ServiceConfig
	if cfg != nil {
		c = *cfg
	}
	gangDim := c.GangDim
	if gangDim == 0 {
		gangDim = 256
	}
	return &Service{
		inner: serve.New(serve.Config{
			Workers:       c.Workers,
			QueueDepth:    c.QueueDepth,
			MaxInFlight:   c.MaxInFlight,
			CacheBytes:    c.CacheBytes,
			GangSize:      c.GangSize,
			GangWait:      c.GangWait,
			TraceEventCap: c.TraceEventCap,
		}),
		gangDim:  gangDim,
		cacheOff: c.CacheBytes < 0,
		tuner:    plan.NewTuner(plan.TunerConfig{Path: c.PlanProfiles, MinSamples: c.PlanMinSamples}),
	}
}

// Submit admits a job and returns without waiting. It fails fast with
// ErrOverloaded when the service is saturated and ErrServiceClosed after
// Close. Cancelling ctx fails the job promptly with ctx.Err(), whether
// it is still queued or mid-graph (a gang member whose batch already
// launched finishes with the batch; its result is discarded).
func (s *Service) Submit(ctx context.Context, req JobRequest) (*Job, error) {
	r, err := s.request(req)
	if err != nil {
		return nil, err
	}
	j, err := s.inner.Submit(ctx, r)
	if err != nil {
		return nil, err
	}
	return &Job{inner: j}, nil
}

// Do is Submit followed by Wait.
func (s *Service) Do(ctx context.Context, req JobRequest) (*JobResult, error) {
	j, err := s.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return j.Wait()
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() ServiceStats {
	st := s.inner.Stats()
	return ServiceStats{
		Workers: st.Workers, InFlight: st.InFlight,
		QueueLen: st.QueueLen, GangQueueLen: st.GangQueueLen, QueueCap: st.QueueCap,
		JobsDone: st.JobsDone, JobsFailed: st.JobsFailed, JobsCancelled: st.JobsCancelled,
		GangBatches: st.GangBatches, GangJobs: st.GangJobs,
		CacheHits: st.CacheHits, CacheMisses: st.CacheMisses,
		CacheEntries: st.CacheEntries, CacheBytes: st.CacheBytes, CacheCap: st.CacheCap,
		WorkspaceBytes: st.WorkspaceBytes,
		TraceDropped:   st.TraceDropped,
		Latency:        toHistogramStats(st.Latency),
		QueueWait:      toHistogramStats(st.QueueWait),
		P50:            st.P50, P99: st.P99,
	}
}

// Close stops admission, fails queued jobs, waits for in-flight jobs,
// persists the plan profiles (when ServiceConfig.PlanProfiles is set)
// and winds the shared pool down. Safe to call more than once.
func (s *Service) Close() {
	s.inner.Close()
	_ = s.tuner.Close()
}

// PlanCounters are the lifetime decision counts of the service's plan
// autotuner (see Options.Auto).
type PlanCounters struct {
	// Model, Explore and Tuned count Options.Auto decisions by source:
	// the model's top pick while exploring, a non-top exploration
	// candidate, and a promoted measured winner.
	Model, Explore, Tuned uint64
	// Promotions counts profiles that graduated to a measured winner;
	// Loaded counts profiles restored from PlanProfiles at startup.
	Promotions, Loaded uint64
	// Profiles is the current number of shape-bucket profiles.
	Profiles int
}

// PlanCounters returns the autotuner's decision counts.
func (s *Service) PlanCounters() PlanCounters {
	c := s.tuner.Counters()
	return PlanCounters{
		Model: c.Model, Explore: c.Explore, Tuned: c.Tuned,
		Promotions: c.Promotions, Loaded: c.Loaded,
		Profiles: len(s.tuner.State().Profiles),
	}
}

// PlanState returns the autotuner's full profile state as one versioned
// JSON document — the same document ServiceConfig.PlanProfiles persists
// and bidiagd serves at /debug/plans.
func (s *Service) PlanState() ([]byte, error) {
	return json.MarshalIndent(s.tuner.State(), "", "  ")
}

// request validates a JobRequest and lowers it to the generic serving
// layer: a Build closure emitting the job's task graph (possibly into a
// shared gang graph), a finish closure extracting the result, and the
// content-addressed cache key.
func (s *Service) request(req JobRequest) (serve.Request, error) {
	if req.A == nil {
		return serve.Request{}, errors.New("bidiag: service job without a matrix")
	}
	var raw Options
	if req.Opts != nil {
		raw = *req.Opts
	}
	// Validate options eagerly so Submit fails fast, then again inside
	// Build (prepare is cheap and keeps the closure self-contained).
	opts, err := raw.Validate()
	if err != nil {
		return serve.Request{}, err
	}
	if opts.Distributed != nil {
		return serve.Request{}, errors.New("bidiag: service jobs run on the shared in-process pool; Options.Distributed must be nil")
	}
	if req.A.Rows() == 0 || req.A.Cols() == 0 {
		return serve.Request{}, errors.New("bidiag: empty matrix")
	}
	if err := checkFinite(req.A.inner); err != nil {
		return serve.Request{}, err
	}

	// Options.Auto jobs consult the service's autotuner at admission:
	// promoted profiles return their measured winner, exploring profiles
	// spread traffic across the model's candidate set, and executed jobs
	// feed their measured whole-graph GFLOP/s back via Observe.
	var observe func(obs.MeterSnapshot)
	auto := opts.Auto
	promoted := false
	run := opts
	if auto {
		preq, err := s.planRequest(req, raw, opts)
		if err != nil {
			return serve.Request{}, err
		}
		dec, err := s.tuner.Decide(preq)
		if err != nil {
			return serve.Request{}, err
		}
		run = applyPlanConfig(opts, dec.Config)
		promoted = dec.Promoted
		cfg := dec.Config
		observe = func(ms obs.MeterSnapshot) {
			s.tuner.Record(preq, cfg, ms.GFlops())
		}
	}
	jobOpts := req.Opts
	if auto {
		jobOpts = &run // Build must run the tuner's plan, not re-plan
	}

	var build func(g *sched.Graph) (func() (any, error), error)
	switch req.Kind {
	case JobSingularValues:
		build = buildSingularValuesJob(req.A, jobOpts)
	case JobSVD:
		build = buildSVDJob(req.A, jobOpts)
	default:
		return serve.Request{}, fmt.Errorf("bidiag: unknown job kind %d", int(req.Kind))
	}
	// Auto jobs are cached under their PRE-resolution identity (the auto
	// flag plus any pins): an exploring profile hands different
	// configurations to identical requests, and keying on the resolved
	// plan would turn every such repeat into a miss. The first executed
	// plan's result serves all identical auto requests — results differ
	// only in rounding across plans, and the cache's contract is "same
	// request, same bytes".
	key := ""
	if !s.cacheOff {
		key = cacheKey(req.Kind, req.A, opts)
	}
	// Gang members share ONE graph, and a graph carries a single GEMM
	// blocking (it parameterizes the workers' workspaces): only jobs on
	// the default blocking may gang, or one member's Options.Gemm would
	// silently apply to its batch-mates and break their bitwise identity
	// with solo runs. Custom-blocking jobs simply run solo — including
	// auto jobs whose promoted plan carries a non-default blocking (the
	// planner enumerates one such variant), which is why the check reads
	// the RESOLVED options. Auto jobs additionally gang only once their
	// profile is promoted: exploration needs solo runs so the meter
	// measures one clean graph.
	gang := s.gangDim > 0 && max(req.A.Rows(), req.A.Cols()) <= s.gangDim &&
		run.Gemm == GemmBlock{} && (!auto || promoted)
	return serve.Request{
		Build:   build,
		Key:     key,
		Bytes:   resultBytes,
		Gang:    gang,
		Trace:   req.Trace,
		Observe: observe,
	}, nil
}

// planRequest lowers an Options.Auto job to its planning request. The
// job kind constrains the candidate space beyond what the one-shot
// entry points use: the service's singular-value path always fuses when
// BND2BD allows it (its staged path is the sequential reference), and
// the SVD path prices the recorded stage-1 graph only.
func (s *Service) planRequest(req JobRequest, raw, opts Options) (plan.Request, error) {
	preq := planRequest(req.A.Rows(), req.A.Cols(), raw, opts, plan.KindValues)
	switch req.Kind {
	case JobSingularValues:
		if !preq.StagedOnly {
			preq.FuseOnly = true
		}
	case JobSVD:
		preq.Kind = plan.KindSVD
		preq.FuseOnly, preq.StagedOnly = false, false
	default:
		return plan.Request{}, fmt.Errorf("bidiag: unknown job kind %d", int(req.Kind))
	}
	return preq, nil
}

// buildSingularValuesJob emits the full singular-value pipeline for one
// job: the fused GE2BND+BND2BD graph whenever the options allow fusion
// (bitwise-identical to the staged path), the GE2BND graph plus a
// sequential chase otherwise, followed by the bidiagonal QR iteration in
// finish.
func buildSingularValuesJob(a *Dense, o *Options) func(g *sched.Graph) (func() (any, error), error) {
	return func(g *sched.Graph) (func() (any, error), error) {
		opts, src, treeKind, _, err := prepare(a, o)
		if err != nil {
			return nil, err
		}
		fuse := opts.BND2BD != BND2BDSequential
		spec := buildSpec(src, opts, treeKind, nil, fuse)
		spec.Graph = g
		plan := pipeline.Build(spec)
		finish := func() (any, error) {
			var r *band.Matrix
			if fuse {
				r = plan.Bidiagonal()
			} else {
				r = band.Reduce(plan.Tiles.ExtractBand(plan.Tiles.NB))
			}
			d, e := r.Bidiagonal()
			v, err := bdsqr.SingularValues(d, e)
			if err != nil {
				return nil, err
			}
			return v, nil
		}
		return finish, nil
	}
}

// buildSVDJob emits the vector-bearing decomposition: the recorded
// GE2BND graph, then — in finish — the dense band SVD and the
// application of the recorded reflectors, exactly as SVD does.
func buildSVDJob(a *Dense, o *Options) func(g *sched.Graph) (func() (any, error), error) {
	return func(g *sched.Graph) (func() (any, error), error) {
		opts, src, treeKind, transposed, err := prepare(a, o)
		if err != nil {
			return nil, err
		}
		rec := &core.Recorder{}
		spec := buildSpec(src, opts, treeKind, rec, false)
		spec.Graph = g
		plan := pipeline.Build(spec)
		finish := func() (any, error) {
			bandDense := plan.Tiles.ExtractBand(plan.Tiles.NB).ToDense()
			ub, sv, vb := jacobi.SVD(bandDense)
			u, err := rec.ApplyLeftAll(ub, opts.Workers)
			if err != nil {
				return nil, err
			}
			vt, err := rec.ApplyRightAll(vb.Transpose(), opts.Workers)
			if err != nil {
				return nil, err
			}
			v := vt.Transpose()
			if transposed {
				u, v = v, u
			}
			return &SVDResult{U: &Dense{inner: u}, S: sv, V: &Dense{inner: v}}, nil
		}
		return finish, nil
	}
}

// CacheKey digests a job — kind, matrix content, and the
// result-affecting options — into the sha256 hex identity the service's
// result cache uses. The options are digested exactly as given, with no
// environment-dependent defaulting (in particular no GOMAXPROCS worker
// default), so two processes on different machines key the same request
// identically — the property the shard router's consistent hashing
// relies on for cache affinity.
func CacheKey(kind JobKind, a *Dense, opts *Options) string {
	var o Options
	if opts != nil {
		o = *opts
	}
	return cacheKey(kind, a, o)
}

// cacheKey digests the matrix content and every result-affecting option
// into the job's content-addressed identity. Fused is deliberately
// absent (fused and staged are bitwise-identical); Workers is present
// because it parameterizes the AUTO tree.
func cacheKey(kind JobKind, a *Dense, opts Options) string {
	h := sha256.New()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w(uint64(kind))
	w(uint64(a.Rows()))
	w(uint64(a.Cols()))
	// One hasher write per column, not per element.
	col := make([]byte, 8*a.Rows())
	for j := 0; j < a.Cols(); j++ {
		for i := 0; i < a.Rows(); i++ {
			binary.LittleEndian.PutUint64(col[8*i:], math.Float64bits(a.At(i, j)))
		}
		h.Write(col)
	}
	w(uint64(opts.NB))
	w(uint64(opts.Tree))
	w(uint64(opts.Algorithm))
	w(uint64(opts.Workers))
	w(uint64(opts.Gamma))
	w(uint64(opts.Gemm.MC))
	w(uint64(opts.Gemm.KC))
	w(uint64(opts.Gemm.NC))
	w(uint64(opts.BND2BD))
	w(uint64(opts.BND2BDWindow))
	if opts.Auto {
		// Keep auto requests distinct from explicit options that happen to
		// carry the same knob values.
		w(1)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// resultBytes accounts a finished result for the cache budget.
func resultBytes(v any) int64 {
	switch r := v.(type) {
	case []float64:
		return int64(8 * len(r))
	case *SVDResult:
		return int64(8 * (len(r.S) + r.U.Rows()*r.U.Cols() + r.V.Rows()*r.V.Cols()))
	}
	return 0
}

// toJobResult lifts a generic serve result into the typed public form.
func toJobResult(res *serve.Result) (*JobResult, error) {
	var jr *JobResult
	switch v := res.Value.(type) {
	case []float64:
		jr = &JobResult{Values: v, CacheHit: res.CacheHit}
	case *SVDResult:
		jr = &JobResult{Values: v.S, SVD: v, CacheHit: res.CacheHit}
	default:
		return nil, fmt.Errorf("bidiag: unexpected service result %T", res.Value)
	}
	jr.Timeline = toTimeline(res.Trace)
	return jr, nil
}

// toTimeline lifts recorded trace events into the public span form.
func toTimeline(events []obs.Event) []TaskSpan {
	if len(events) == 0 {
		return nil
	}
	spans := make([]TaskSpan, len(events))
	for i, e := range events {
		spans[i] = TaskSpan{
			Kernel: e.Kind.String(),
			Worker: int(e.Worker),
			I:      int(e.I), J: int(e.J), K: int(e.K),
			Flops: e.Flops,
			Start: e.Start, End: e.End,
		}
	}
	return spans
}
