package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/client"
	"github.com/tiled-la/bidiag/internal/latms"
)

// The serve-mixed traffic: a closed loop of serveCallers callers, each
// sending its next request only after the previous reply, over at most
// serveCallers connections. 90% of requests ask for singular values of a
// ragged matrix (dims in [64, 256], wide shapes included), 10% for an
// SVD (dims in [64, 128]); 15% repeat an earlier request exactly.
const (
	serveCallers   = 2
	serveSVDShare  = 0.10
	serveRepeat    = 0.15
	serveWarmReqs  = 64
	serveMaxRate   = 200 // request slots generated per second of --seconds
	serveMinDim    = 64
	serveValuesDim = 256
	serveSVDDim    = 128
)

// serveMinTimed is how many requests the timed phase sends at least: it
// runs past --seconds until then, so latency_p99_s has ten samples
// beyond it, but for no longer than serveMaxPhase times --seconds. A
// variable only so the self-test can run a short phase.
var serveMinTimed = 1000

const serveMaxPhase = 3

// serveSpectra are the spectra serve-mixed inputs draw from.
var serveSpectra = []struct {
	Mode latms.Mode
	Cond float64
}{
	{latms.RandomLog, 1e6},
	{latms.Geometric, 1e6},
	{latms.Arithmetic, 10},
}

// serveReq is one request slot of the traffic: its input is generated
// from Seed when the slot is sent, so a repeat regenerates the same bytes.
type serveReq struct {
	spec
	Kind bidiag.JobKind
	Seed int64
}

func (r serveReq) input() input { return generate(r.spec, r.Kind, r.Seed) }

// serveTraffic is the request sequence of one phase: n slots drawn from
// the run seed. Repeats point back at an earlier slot of the same phase.
func serveTraffic(seed int64, stream, n int, repeats bool) []serveReq {
	rng := rand.New(rand.NewSource(subSeed(seed, streamServeKind, stream)))
	reqs := make([]serveReq, n)
	for i := range reqs {
		if repeats && i > 0 && rng.Float64() < serveRepeat {
			reqs[i] = reqs[rng.Intn(i)]
			continue
		}
		r := serveReq{Kind: bidiag.JobSingularValues, Seed: subSeed(seed, stream, i)}
		hi := serveValuesDim
		if rng.Float64() < serveSVDShare {
			r.Kind, hi = bidiag.JobSVD, serveSVDDim
		}
		sp := serveSpectra[rng.Intn(len(serveSpectra))]
		r.spec = spec{
			M:    serveMinDim + rng.Intn(hi-serveMinDim+1),
			N:    serveMinDim + rng.Intn(hi-serveMinDim+1),
			Mode: sp.Mode, Cond: sp.Cond,
		}
		reqs[i] = r
	}
	return reqs
}

// daemon is one bidiagd process on loopback.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	hc       *http.Client
	cl       *client.Client
	done     chan error
	stopOnce sync.Once
}

// startDaemon boots a fresh bidiagd with no plan-profiles file and
// waits until /healthz answers.
func startDaemon(path string) (*daemon, error) {
	if path == "" {
		return nil, errors.New("serve-mixed needs -bidiagd")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(path, "-addr", addr, "-workers", strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bidiagd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	d.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveCallers,
		MaxIdleConnsPerHost: serveCallers,
		DisableCompression:  true,
	}}
	d.cl = client.New(d.base).WithHTTPClient(d.hc)
	for deadline := time.Now().Add(30 * time.Second); ; {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := d.cl.Healthz(ctx)
		cancel()
		if err == nil {
			return d, nil
		}
		select {
		case werr := <-d.done:
			return nil, fmt.Errorf("bidiagd exited during start-up: %v", werr)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("bidiagd did not become healthy: %w", err)
		}
	}
}

// stop shuts the daemon down and waits for it to exit; later calls do
// nothing.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		d.hc.CloseIdleConnections()
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	})
}

// outcome is one request's client-side record.
type outcome struct {
	Latency time.Duration
	Check   check
	// svd keeps an SVD reply and its input for the post-phase check.
	svd *svdPending
}

type svdPending struct {
	in  input
	res *bidiag.SVDResult
}

// drive runs a closed loop of serveCallers callers. With dur 0 it sends
// inputs 0..n-1 once; otherwise it keeps sending, wrapping around n,
// until the phase has run for dur and sent at least minReqs requests, or
// has run for serveMaxPhase·dur. It returns the outcomes in completion
// order and the phase's wall time.
func (d *daemon) drive(n int, get func(i int) input, dur time.Duration, minReqs int) ([]outcome, time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
	)
	start := time.Now()
	for range serveCallers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if dur == 0 && i >= n {
					return
				}
				if el := time.Since(start); dur > 0 && (el >= dur && i >= minReqs || el >= serveMaxPhase*dur) {
					return
				}
				o := d.send(get(i % n))
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// send issues one request; values are checked after the clock stops,
// SVDs after the phase.
func (d *daemon) send(in input) outcome {
	ctx := context.Background()
	if in.Kind == bidiag.JobSVD {
		t0 := time.Now()
		resp, err := d.cl.SVD(ctx, in.A, nil)
		o := outcome{Latency: time.Since(t0)}
		if err != nil {
			o.Check = check{Err: fmt.Errorf("%v: /v1/svd: %w", in.spec, err)}
			return o
		}
		u, err1 := bidiag.NewDenseFromColMajor(resp.U.M, resp.U.N, resp.U.Data)
		v, err2 := bidiag.NewDenseFromColMajor(resp.V.M, resp.V.N, resp.V.Data)
		if err := errors.Join(err1, err2); err != nil {
			o.Check = check{Err: fmt.Errorf("%v: /v1/svd reply: %w", in.spec, err)}
			return o
		}
		o.svd = &svdPending{in: in, res: &bidiag.SVDResult{U: u, S: resp.S, V: v}}
		return o
	}
	t0 := time.Now()
	resp, err := d.cl.SingularValues(ctx, in.A, nil)
	o := outcome{Latency: time.Since(t0)}
	if err != nil {
		o.Check = check{Err: fmt.Errorf("%v: /v1/singular-values: %w", in.spec, err)}
		return o
	}
	o.Check = checkValues(&in, resp.S)
	return o
}

// settle finishes the deferred SVD checks and counts the outcomes.
func settle(outs []outcome) tally {
	var t tally
	for i := range outs {
		if p := outs[i].svd; p != nil {
			outs[i].Check = checkSVD(&p.in, p.res)
			outs[i].svd = nil
		}
		t.add(outs[i].Check)
	}
	return t
}

// bootWarm is one serve-mixed set-up: a fresh daemon, ready and warmed
// up with requests that are not in the timed set. It returns the daemon
// and the set-up time.
func bootWarm(c config, warm []input) (*daemon, float64, bool, error) {
	t0 := time.Now()
	d, err := startDaemon(c.bidiagd)
	if err != nil {
		return nil, 0, false, err
	}
	outs, _ := d.drive(len(warm), func(i int) input { return warm[i] }, 0, 0)
	setup := time.Since(t0)
	t := settle(outs)
	return d, setup.Seconds(), t.failed == 0, nil
}

// runServe is a serve-mixed run. The timed run sets up three fresh
// daemons (the last one serves the timed phase) and reports client-side
// latency with the daemon's CPU and peak RSS; the traced run reads the
// daemon's /metrics around the same phase and probes the layers
// in-process on a representative request.
func runServe(c config) (result, error) {
	res := result{Correct: true}
	warm := make([]input, serveWarmReqs)
	for i, r := range serveTraffic(c.seed, streamServeWarm, serveWarmReqs, false) {
		warm[i] = r.input()
	}
	timed := serveTraffic(c.seed, streamServeTimed, max(2*serveMinTimed, int(c.seconds*serveMaxRate)), true)

	var (
		d      *daemon
		setups []float64
	)
	reps := setupReps
	if c.trace {
		reps = 1
	}
	for k := range reps {
		dk, s, ok, err := bootWarm(c, warm)
		if err != nil {
			return res, err
		}
		setups = append(setups, s)
		res.Correct = res.Correct && ok
		if k < reps-1 {
			dk.stop()
		} else {
			d = dk
		}
	}
	defer d.stop()

	pid := d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return res, err
	}
	var m0 promSample
	if c.trace {
		if m0, err = d.scrape(); err != nil {
			return res, err
		}
	}
	minReqs := serveMinTimed
	if c.trace {
		minReqs = 0
	}
	outs, wall := d.drive(len(timed), func(i int) input { return timed[i].input() }, seconds(c), minReqs)
	cpu1, err := procCPU(pid)
	if err != nil {
		return res, err
	}
	rss, err := peakRSSMiB(strconv.Itoa(pid))
	if err != nil {
		return res, err
	}
	var m1 promSample
	if c.trace {
		if m1, err = d.scrape(); err != nil {
			return res, err
		}
	}

	lat := make([]float64, len(outs))
	var sumLat float64
	for i, o := range outs {
		lat[i] = o.Latency.Seconds()
		sumLat += lat[i]
	}
	t := settle(outs)
	n := float64(len(outs))

	if !c.trace {
		t.report()
		res.Attempted, res.Failed = t.attempted, t.failed
		res.set("setup_s", median(setups))
		res.set("latency_p50_s", median(lat))
		res.set("latency_p99_s", quantile(lat, 0.99))
		res.set("throughput_ops_s", n/wall.Seconds())
		res.set("cpu_s_per_op", (cpu1-cpu0).Seconds()/n)
		res.set("peak_rss_mb", rss)
		if len(outs) < 1000 {
			fmt.Fprintf(os.Stderr, "perfbench: only %d requests: latency_p99_s has fewer than 10 samples beyond it\n", len(outs))
		}
		return res, nil
	}

	d.stop()
	probe, err := probeRepresentative(c, &t)
	if err != nil {
		return res, err
	}
	t.report()
	res.Attempted, res.Failed = t.attempted, t.failed
	for name, v := range probe {
		res.set(name, v)
	}
	delta := func(series string) float64 { return m1[series] - m0[series] }
	jobSum := delta("bidiagd_job_latency_seconds_sum")
	hits, misses := delta("bidiagd_cache_hits_total"), delta("bidiagd_cache_misses_total")
	res.set("serve.job_latency_mean_s", ratio(jobSum, delta("bidiagd_job_latency_seconds_count")))
	res.set("serve.queue_wait_mean_s", ratio(delta("bidiagd_job_queue_wait_seconds_sum"), delta("bidiagd_job_queue_wait_seconds_count")))
	res.set("serve.cache_hit_share", ratio(hits, hits+misses))
	res.set("serve.gang_job_share", ratio(delta("bidiagd_gang_jobs_total"), delta(`bidiagd_jobs_total{result="done"}`)))
	res.set("serve.jobs_failed", delta(`bidiagd_jobs_total{result="failed"}`))
	res.set("serve.workspace_mb", m1["bidiagd_workspace_bytes"]/(1<<20))
	for _, src := range []string{"model", "explore", "tuned"} {
		res.set("plan.decisions_"+src, delta(`bidiagd_plan_decisions_total{source="`+src+`"}`))
	}
	res.set("http.overhead_mean_s", ratio(sumLat-jobSum, n))
	return res, nil
}

// representative is the request whose layers the serve-mixed traced run
// probes in-process: the largest values request of the mix.
var representative = spec{serveValuesDim, serveValuesDim, latms.Geometric, 1e6}

// probeRepresentative runs the library probe rounds on the representative
// request for a third of --seconds (at least one round).
func probeRepresentative(c config, t *tally) (sample, error) {
	in := generate(representative, bidiag.JobSingularValues, subSeed(c.seed, streamServeWarm, -1))
	t0 := time.Now()
	opts, err := bidiag.AutoPlan(in.M, in.N, libOptions())
	if err != nil {
		return nil, err
	}
	autoplan := time.Since(t0)
	svc := bidiag.NewService(&bidiag.ServiceConfig{Workers: workers, CacheBytes: -1})
	defer svc.Close()
	var rounds []sample
	for start := time.Now(); len(rounds) == 0 || time.Since(start) < seconds(c)/3; {
		s, err := probeLayers(svc, &in, opts, t)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, s)
	}
	out := medians(rounds)
	out["plan.autoplan_s"] = autoplan.Seconds()
	return out, nil
}

// promSample is one /metrics scrape: series (name plus labels) → value.
type promSample map[string]float64

// scrape reads the daemon's Prometheus text exposition.
func (d *daemon) scrape() (promSample, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	p := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		p[line[:i]] = v
	}
	return p, sc.Err()
}
