package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"github.com/tiled-la/bidiag"
)

// workers sizes every pool the benchmark drives: the box it is sized
// for has two cores.
const workers = 2

// setupReps is how many fresh processes (or daemons) a run sets up; it
// reports their median.
const setupReps = 3

func libOptions() *bidiag.Options { return &bidiag.Options{Auto: true, Workers: workers} }

// libCall runs one operation through the one-shot public entry point.
func libCall(in *input) (any, error) {
	if in.Kind == bidiag.JobSVD {
		return bidiag.SVD(in.A, libOptions())
	}
	return bidiag.SingularValues(in.A, libOptions())
}

// verify runs the oracle on one operation's outcome.
func verify(in *input, out any, err error) check {
	if err != nil {
		return check{Err: fmt.Errorf("%v: %w", in.spec, err)}
	}
	switch r := out.(type) {
	case []float64:
		return checkValues(in, r)
	case *bidiag.SVDResult:
		return checkSVD(in, r)
	}
	return check{Err: fmt.Errorf("%v: unexpected result %T", in.spec, out)}
}

// tally counts verified operations and keeps the worst error of each
// kind among those that passed, in units of max(m, n)·ε.
type tally struct {
	attempted, failed int
	worst             check
}

func (t *tally) add(c check) {
	t.attempted++
	if c.Err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "perfbench: failed:", c.Err)
		return
	}
	t.worst.ValuesErr = max(t.worst.ValuesErr, c.ValuesErr)
	t.worst.Residual = max(t.worst.Residual, c.Residual)
	t.worst.OrthoU = max(t.worst.OrthoU, c.OrthoU)
	t.worst.OrthoV = max(t.worst.OrthoV, c.OrthoV)
}

// report prints the counts and the worst passing errors.
func (t *tally) report() {
	fmt.Printf("accuracy attempted=%d failed=%d worst passing, in max(m,n)·ε: values=%.3g residual=%.3g orthoU=%.3g orthoV=%.3g\n",
		t.attempted, t.failed, t.worst.ValuesErr, t.worst.Residual, t.worst.OrthoU, t.worst.OrthoV)
}

// runLibrary is the timed run of a library workload: set-up measured in
// fresh processes, one warm-up call, then one caller making calls back
// to back over whole cycles of the inputs until --seconds of calls have
// run. Only the calls are timed; generation and checks sit outside.
func runLibrary(c config, w *libWorkload) (result, error) {
	if c.trace {
		return runLibraryTraced(c, w)
	}
	res := result{Correct: true}
	setups := make([]float64, 0, setupReps)
	for range setupReps {
		s, ok, err := setupProbe(c)
		if err != nil {
			return res, err
		}
		res.Correct = res.Correct && ok
		setups = append(setups, s)
	}

	inputs := w.inputs(c.seed)
	out, err := libCall(&inputs[0])
	if ch := verify(&inputs[0], out, err); ch.Err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: warm-up call failed:", ch.Err)
		res.Correct = false
	}

	var (
		lat     []float64
		cpu     time.Duration
		elapsed time.Duration
		t       tally
	)
	for i := 0; elapsed < seconds(c) || i%len(inputs) != 0; i++ {
		in := &inputs[i%len(inputs)]
		// Collect the oracle's garbage outside the timed region, so no
		// call pays for the benchmark's own allocations.
		runtime.GC()
		c0 := selfCPU()
		t0 := time.Now()
		out, err := libCall(in)
		d := time.Since(t0)
		cpu += selfCPU() - c0
		elapsed += d
		lat = append(lat, d.Seconds())
		t.add(verify(in, out, err))
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return res, err
	}
	t.report()
	res.Attempted, res.Failed = t.attempted, t.failed
	res.set("setup_s", median(setups))
	res.set("latency_p50_s", median(lat))
	res.set("latency_p99_s", quantile(lat, 0.99))
	res.set("throughput_ops_s", float64(len(lat))/elapsed.Seconds())
	res.set("cpu_s_per_op", cpu.Seconds()/float64(len(lat)))
	res.set("peak_rss_mb", rss)
	return res, nil
}

func seconds(c config) time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// probeReport is what a set-up probe process prints.
type probeReport struct {
	GenS    float64 `json:"gen_s"`
	VerifyS float64 `json:"verify_s"`
	OK      bool    `json:"ok"`
}

// setupProbe measures one set-up of a library workload: a fresh process
// that generates the first input and makes the first call. The sample is
// the process's wall time from start to exit, less its input generation
// and its check, which are the benchmark's own work.
func setupProbe(c config) (float64, bool, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, false, err
	}
	cmd := exec.Command(self, "-setup-probe", "-workload", c.workload, "-seed", strconv.FormatInt(c.seed, 10))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, false, fmt.Errorf("setup probe: %w", err)
	}
	wall := time.Since(t0).Seconds()
	var rep probeReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return 0, false, fmt.Errorf("setup probe output %q: %w", out.String(), err)
	}
	return wall - rep.GenS - rep.VerifyS, rep.OK, nil
}

// runSetupProbe is the probe process's side of setupProbe.
func runSetupProbe(c config) error {
	w := libraryWorkload(c.workload)
	if w == nil {
		return fmt.Errorf("no library workload %q", c.workload)
	}
	t0 := time.Now()
	in := w.input(c.seed, 0)
	gen := time.Since(t0)
	out, err := libCall(&in)
	t1 := time.Now()
	ch := verify(&in, out, err)
	if ch.Err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up call failed:", ch.Err)
	}
	return json.NewEncoder(os.Stdout).Encode(probeReport{
		GenS: gen.Seconds(), VerifyS: time.Since(t1).Seconds(), OK: ch.Err == nil,
	})
}

// median is the middle of xs (the mean of the two middle values for an
// even count), as Python's statistics.median gives it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs: with fewer than
// 1/(1−q) samples it is the largest.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(r, 0), len(s)-1)]
}
