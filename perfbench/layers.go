package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/tiled-la/bidiag"
)

// sample holds one round's per-layer values by metric name.
type sample map[string]float64

// runLibraryTraced is the traced run of a library workload. Each round
// passes once over the workload's specs and times the calls into each
// layer's public function; the per-layer values are per-operation means
// of a round, and the run reports each one's median over the rounds
// that fit in --seconds (at least one).
func runLibraryTraced(c config, w *libWorkload) (result, error) {
	res := result{Correct: true}
	cycle := make([]input, len(w.Cycle))
	for i := range cycle {
		cycle[i] = w.input(c.seed, i)
	}

	// plan: the first AutoPlan call per distinct shape is the planning a
	// fresh process pays (AutoPlan memoizes its answer).
	var autoplan time.Duration
	resolved := make([]bidiag.Options, len(cycle))
	seen := map[[2]int]bool{}
	for i := range cycle {
		t0 := time.Now()
		o, err := bidiag.AutoPlan(cycle[i].M, cycle[i].N, libOptions())
		if err != nil {
			return res, fmt.Errorf("AutoPlan %v: %w", cycle[i].spec, err)
		}
		if shape := [2]int{cycle[i].M, cycle[i].N}; !seen[shape] {
			seen[shape] = true
			autoplan += time.Since(t0)
		}
		resolved[i] = o
	}

	svc := bidiag.NewService(&bidiag.ServiceConfig{Workers: workers, CacheBytes: -1})
	defer svc.Close()
	var (
		rounds []sample
		t      tally
	)
	for start := time.Now(); len(rounds) == 0 || time.Since(start) < seconds(c); {
		sum := sample{}
		for i := range cycle {
			s, err := probeLayers(svc, &cycle[i], resolved[i], &t)
			if err != nil {
				return res, err
			}
			for k, v := range s {
				sum[k] += v / float64(len(cycle))
			}
		}
		rounds = append(rounds, sum)
	}
	t.report()
	res.Attempted, res.Failed = t.attempted, t.failed
	for name, v := range medians(rounds) {
		res.set(name, v)
	}
	res.set("plan.autoplan_s", autoplan.Seconds())
	res.set("http.overhead_mean_s", 0) // no HTTP layer in a library workload
	return res, nil
}

// probeLayers times one input through every layer's public call:
// GE2BND and Band.SingularValues (stages 1 and 2+3) under the resolved
// options, the workload's one-shot call (allocations), and one untraced
// and one traced Service.Do of the same job (timeline, finish step,
// tracing overhead, service counters). Every result is checked.
func probeLayers(svc *bidiag.Service, in *input, opts bidiag.Options, t *tally) (sample, error) {
	s := sample{}

	o := opts
	t0 := time.Now()
	band, err := bidiag.GE2BND(in.A, &o)
	ge2bnd := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("GE2BND %v: %w", in.spec, err)
	}
	s["core.ge2bnd_s"] = ge2bnd.Seconds()
	s["core.ge2bnd_gflops"] = paperFlops(in.M, in.N) / ge2bnd.Seconds() / 1e9

	t0 = time.Now()
	vals, err := band.SingularValues()
	s["band.singular_values_s"] = time.Since(t0).Seconds()
	t.add(verify(in, vals, err))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out, err := libCall(in)
	runtime.ReadMemStats(&m1)
	s["mem.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	t.add(verify(in, out, err))

	st0, pc0 := svc.Stats(), svc.PlanCounters()
	req := bidiag.JobRequest{Kind: in.Kind, A: in.A, Opts: &o}
	plain, _, err := timedDo(svc, req, in, t)
	if err != nil {
		return nil, err
	}
	req.Trace = true
	traced, timeline, err := timedDo(svc, req, in, t)
	if err != nil {
		return nil, err
	}
	st1, pc1 := svc.Stats(), svc.PlanCounters()

	span := timelineMetrics(s, timeline, st1.Workers)
	s["bidiag.finish_s"] = (traced - span).Seconds()
	s["trace.overhead_share"] = traced.Seconds()/plain.Seconds() - 1
	serviceDeltas(s, st0, st1)
	s["plan.decisions_model"] = float64(pc1.Model - pc0.Model)
	s["plan.decisions_explore"] = float64(pc1.Explore - pc0.Explore)
	s["plan.decisions_tuned"] = float64(pc1.Tuned - pc0.Tuned)
	return s, nil
}

// timedDo runs one service job and checks its result.
func timedDo(svc *bidiag.Service, req bidiag.JobRequest, in *input, t *tally) (time.Duration, []bidiag.TaskSpan, error) {
	t0 := time.Now()
	jr, err := svc.Do(context.Background(), req)
	d := time.Since(t0)
	if err != nil {
		t.add(check{Err: fmt.Errorf("%v: Service.Do: %w", in.spec, err)})
		return d, nil, nil
	}
	if req.Kind == bidiag.JobSVD {
		t.add(verify(in, jr.SVD, nil))
	} else {
		t.add(verify(in, jr.Values, nil))
	}
	if req.Trace && len(jr.Timeline) == 0 {
		return d, nil, fmt.Errorf("%v: traced job returned no timeline", in.spec)
	}
	return d, jr.Timeline, nil
}

// timelineMetrics records the kernels.* and sched.* metrics of one task
// timeline and returns its span (first start to last end).
func timelineMetrics(s sample, tl []bidiag.TaskSpan, nworkers int) time.Duration {
	busy := map[string]time.Duration{}
	flops := map[string]float64{}
	tasks := map[string]int{}
	var first, last, total time.Duration
	for i, sp := range tl {
		if i == 0 || sp.Start < first {
			first = sp.Start
		}
		last = max(last, sp.End)
		d := sp.End - sp.Start
		total += d
		busy[sp.Kernel] += d
		flops[sp.Kernel] += sp.Flops
		tasks[sp.Kernel]++
	}
	for _, k := range kernelKinds {
		s["kernels."+k+".busy_s"] = busy[k].Seconds()
		s["kernels."+k+".tasks"] = float64(tasks[k])
		if !zeroFlopKinds[k] {
			g := 0.0
			if busy[k] > 0 {
				g = flops[k] / busy[k].Seconds() / 1e9
			}
			s["kernels."+k+".gflops"] = g
		}
	}
	span := last - first
	capacity := span.Seconds() * float64(nworkers)
	s["sched.tasks"] = float64(len(tl))
	s["sched.span_s"] = span.Seconds()
	s["sched.idle_s"] = capacity - total.Seconds()
	if capacity > 0 {
		s["sched.utilization"] = total.Seconds() / capacity
	}
	return span
}

// serviceDeltas records the serve.* metrics from two Service.Stats
// snapshots taken around a set of jobs.
func serviceDeltas(s sample, a, b bidiag.ServiceStats) {
	jobs := float64(b.Latency.Count - a.Latency.Count)
	s["serve.job_latency_mean_s"] = ratio(b.Latency.Sum-a.Latency.Sum, jobs)
	s["serve.queue_wait_mean_s"] = ratio(b.QueueWait.Sum-a.QueueWait.Sum, float64(b.QueueWait.Count-a.QueueWait.Count))
	hits := float64(b.CacheHits - a.CacheHits)
	s["serve.cache_hit_share"] = ratio(hits, hits+float64(b.CacheMisses-a.CacheMisses))
	s["serve.gang_job_share"] = ratio(float64(b.GangJobs-a.GangJobs), float64(b.JobsDone-a.JobsDone))
	s["serve.jobs_failed"] = float64(b.JobsFailed - a.JobsFailed)
	s["serve.workspace_mb"] = float64(b.WorkspaceBytes) / (1 << 20)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// paperFlops is the paper's GE2BND operation count, 4n²(m − n/3) with
// m ≥ n; R-bidiagonalization runs are rated by the same count.
func paperFlops(m, n int) float64 {
	if m < n {
		m, n = n, m
	}
	fm, fn := float64(m), float64(n)
	return 4 * fn * fn * (fm - fn/3)
}

// medians reduces rounds to the median of each metric.
func medians(rounds []sample) sample {
	out := sample{}
	for name := range rounds[0] {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = r[name]
		}
		out[name] = median(xs)
	}
	return out
}
