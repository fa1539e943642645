// Command perfbench is the repository benchmark: four workloads that each
// put one layer of the library on the critical path, run against the
// public API (bidiag.SingularValues, SVD, AutoPlan, GE2BND,
// Band.SingularValues, Service.Do) and the bidiagd daemon over the client
// package. Every operation is checked against the singular values the
// latms generator prescribed, outside the timed region.
//
//	perfbench -bidiagd <path> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it times the workload with tracing off and prints the
// end-to-end metrics; with --trace 1 it runs the separate traced pass
// that times the calls into each layer and prints the per-layer metrics.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 16, "failed": 0, "metrics": {"setup_s": {"value": 1.2, "unit": "s"}, ...}}
//
// run.sh builds this binary and bidiagd from the checkout and runs it;
// README.md documents the workloads and the layer → metric → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// result is what one run reports: the contract's last output line.
type result struct {
	// Correct is false when an operation outside the counted ones (a
	// set-up or warm-up call) returned a wrong answer, or a metric could
	// not be measured: every wrong answer is either counted in Failed or
	// clears Correct.
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// set records a metric under its catalogue unit; an unknown name is a bug.
func (r *result) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: metric not in the catalogue: " + name)
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// config is one invocation's parsed flags.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bidiagd  string
}

func main() {
	var c config
	var traceFlag int
	var setupProbe bool
	flag.StringVar(&c.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&c.seed, "seed", 1, "input seed: equal seeds generate identical inputs")
	flag.Float64Var(&c.seconds, "seconds", 20, "seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&c.bidiagd, "bidiagd", "", "path of the bidiagd binary (serve-mixed)")
	flag.BoolVar(&setupProbe, "setup-probe", false, "internal: make one cold call in a fresh process and report it")
	flag.Parse()
	c.trace = traceFlag == 1

	if setupProbe {
		if err := runSetupProbe(c); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup probe:", err)
			os.Exit(1)
		}
		return
	}
	if traceFlag != 0 && traceFlag != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag))
	}
	if c.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive, got %v", c.seconds))
	}

	env := environment()
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	var res result
	var err error
	switch {
	case c.workload == serveWorkload:
		res, err = runServe(c)
	case libraryWorkload(c.workload) != nil:
		res, err = runLibrary(c, libraryWorkload(c.workload))
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", c.workload, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		fail(err)
	}
	want := endToEnd
	if c.trace {
		want = perLayer
	}
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", m.Name)
			res.Correct = false
			res.set(m.Name, 0)
		}
	}
	printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printTable prints the metrics by name with their units, one a line,
// ahead of the JSON line.
func printTable(r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}
