package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/internal/latms"
)

// tinyWorkload is a library workload small enough for the self-test. It
// is registered in the test binary only, and the set-up probe processes
// the timed path starts are that same binary (see TestMain).
var tinyWorkload = libWorkload{
	Name: "tiny-svd",
	Kind: bidiag.JobSVD,
	Cycle: []spec{
		{96, 64, latms.Geometric, 1e4},
		{64, 80, latms.RandomLog, 1e3},
	},
	Copies: 1,
}

func TestMain(m *testing.M) {
	libraryWorkloads = append(libraryWorkloads, tinyWorkload)
	// The timed path re-runs its own executable with -setup-probe: in the
	// test binary that lands here, and main handles it.
	for _, a := range os.Args[1:] {
		if a == "-setup-probe" {
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

func TestOracleFlagsPerturbedSigma(t *testing.T) {
	in := generate(spec{120, 80, latms.Geometric, 1e6}, bidiag.JobSingularValues, 7)
	s, err := bidiag.SingularValues(in.A, libOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c := checkValues(&in, s); c.Err != nil {
		t.Fatalf("exact values failed the oracle: %v", c.Err)
	}
	s[5] *= 1 + 1e-10
	if c := checkValues(&in, s); c.Err == nil {
		t.Fatalf("perturbed σ passed the oracle (error %.3g·max(m,n)·ε)", c.ValuesErr)
	}
	if c := checkValues(&in, s[1:]); c.Err == nil {
		t.Fatal("a missing singular value passed the oracle")
	}
}

func TestOracleFlagsNonOrthonormalU(t *testing.T) {
	in := generate(spec{100, 70, latms.RandomLog, 1e4}, bidiag.JobSVD, 8)
	r, err := bidiag.SVD(in.A, libOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c := checkSVD(&in, r); c.Err != nil {
		t.Fatalf("exact SVD failed the oracle: %v", c.Err)
	}
	// Shear one column of U into another: U stays close to the true
	// factor but its columns are no longer orthonormal.
	u := colMajor(r.U)
	m := r.U.Rows()
	for i := 0; i < m; i++ {
		u[i+3*m] += 1e-9 * u[i+4*m]
	}
	bad, err := bidiag.NewDenseFromColMajor(m, r.U.Cols(), u)
	if err != nil {
		t.Fatal(err)
	}
	c := checkSVD(&in, &bidiag.SVDResult{U: bad, S: r.S, V: r.V})
	if c.Err == nil || !(c.OrthoU > orthoTol) {
		t.Fatalf("non-orthonormal U: err %v, max|UᵀU−I| %.3g·max(m,n)·ε, want a failure above %g", c.Err, c.OrthoU, orthoTol)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range []*libWorkload{libraryWorkload("svd-mixed"), &tinyWorkload} {
		a, b := w.inputs(3), w.inputs(3)
		for i := range a {
			if !reflect.DeepEqual(colMajor(a[i].A), colMajor(b[i].A)) || !reflect.DeepEqual(a[i].Sigma, b[i].Sigma) {
				t.Fatalf("%s input %d differs between two draws of seed 3", w.Name, i)
			}
		}
		if c := w.inputs(4); reflect.DeepEqual(colMajor(a[0].A), colMajor(c[0].A)) {
			t.Fatalf("%s: seeds 3 and 4 drew the same input", w.Name)
		}
	}
	x, y := serveTraffic(3, streamServeTimed, 300, true), serveTraffic(3, streamServeTimed, 300, true)
	if !reflect.DeepEqual(x, y) {
		t.Fatal("serve traffic differs between two draws of seed 3")
	}
	repeats := 0
	for i := range x {
		if i > 0 && x[i].Seed != subSeed(3, streamServeTimed, i) {
			repeats++
		}
		if i < 20 && !reflect.DeepEqual(colMajor(x[i].input().A), colMajor(y[i].input().A)) {
			t.Fatalf("serve slot %d generates different matrices", i)
		}
	}
	if repeats < 20 || repeats > 70 {
		t.Fatalf("%d of 300 serve requests repeat an earlier one, want ~15%%", repeats)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric names, units and
// directions, and the workload names, identical to BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the catalogue")
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the catalogue")
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{"values-square", "values-tall", "svd-mixed", "serve-mixed"}; !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
}

// wantMetrics fails unless r reports exactly the given metrics, each with
// its catalogue unit and a finite value.
func wantMetrics(t *testing.T, r result, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", d.Name, m.Value)
		}
	}
	if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
}

func TestLibraryRunsReportEveryMetric(t *testing.T) {
	c := config{workload: tinyWorkload.Name, seed: 1, seconds: 0.05}
	r, err := runLibrary(c, libraryWorkload(c.workload))
	if err != nil {
		t.Fatal(err)
	}
	wantMetrics(t, r, endToEnd)
	if r.Attempted%len(tinyWorkload.Cycle) != 0 {
		t.Errorf("%d operations is not a whole number of cycles", r.Attempted)
	}

	c.trace = true
	r, err = runLibrary(c, libraryWorkload(c.workload))
	if err != nil {
		t.Fatal(err)
	}
	wantMetrics(t, r, perLayer)
}

func TestServeRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots bidiagd")
	}
	bin := filepath.Join(t.TempDir(), "bidiagd")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/tiled-la/bidiag/cmd/bidiagd").CombinedOutput(); err != nil {
		t.Fatalf("build bidiagd: %v\n%s", err, out)
	}
	defer func(n int) { serveMinTimed = n }(serveMinTimed)
	serveMinTimed = 0
	c := config{workload: serveWorkload, seed: 1, seconds: 0.3, bidiagd: bin}
	r, err := runServe(c)
	if err != nil {
		t.Fatal(err)
	}
	wantMetrics(t, r, endToEnd)

	c.trace = true
	r, err = runServe(c)
	if err != nil {
		t.Fatal(err)
	}
	wantMetrics(t, r, perLayer)
}
