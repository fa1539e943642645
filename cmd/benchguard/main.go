// Command benchguard gates the benchmark trend in CI: it compares a
// freshly measured BENCH_*.json record against the checked-in reference
// for the same configuration and exits non-zero when GFLOP/s regressed
// by more than the tolerance (25% by default, absorbing normal
// runner-to-runner noise while catching real performance losses).
//
//	benchguard -ref BENCH_ge2bnd_1024.json -new out/BENCH_ge2bnd_1024.json
//	benchguard -ref BENCH_bnd2bd_4096.json -new out/BENCH_bnd2bd_4096.json -tol 0.25
//	benchguard -ref BENCH_kernels_apply.json -new out/BENCH_kernels_apply.json
//
// Records with a kernels array (bidiagbench -stage apply) or a stages
// array (bidiagbench -stage full) are gated entry by entry as well as on
// the aggregate rate, so one kernel or stage regressing cannot hide
// behind the others improving.
//
// Improvements always pass; the checked-in record is only refreshed
// deliberately, so the trajectory of committed numbers changes only on
// purpose.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// currentSchema mirrors bidiagbench's record schema version. A
// committed reference written before the current schema still compares
// (the guarded figures are stable), but the guard says so out loud.
// Schema 3 adds the kernels array of per-kernel apply rates.
const currentSchema = 3

// record is the subset of the bidiagbench perf schema the guard needs.
type record struct {
	Experiment  string  `json:"experiment"`
	Schema      int     `json:"schema"`
	M           int     `json:"m"`
	N           int     `json:"n"`
	NB          int     `json:"nb"`
	KU          int     `json:"ku"`
	Workers     int     `json:"workers"`
	Jobs        int     `json:"jobs"`
	WallSeconds float64 `json:"wall_seconds"`
	GFlops      float64 `json:"gflops"`
	JobsPerSec  float64 `json:"jobs_per_sec"`

	// Kernels carries the per-kernel rates of a -stage apply record.
	// Each reference entry is matched to the fresh record by name and
	// gated with the same tolerance as the headline rate, so one kernel
	// regressing cannot hide behind the aggregate.
	Kernels []kernelRate `json:"kernels"`

	// Stages carries the per-stage ledger of a -stage full record
	// (GE2BND, BND2BD, BD2VAL), gated entry by entry like Kernels.
	Stages []stageRate `json:"stages"`

	// Reconcile carries the model-vs-measured telemetry bidiagbench
	// attaches to shared-memory records, CommFit and CommReconcile the
	// measured α-β communication model of a commcal cluster record. All
	// three are machine- and load-dependent diagnostic data, not tracked
	// figures: the guard parses them for schema forward compatibility and
	// deliberately never compares them.
	Reconcile     json.RawMessage `json:"reconcile,omitempty"`
	CommFit       json.RawMessage `json:"comm_fit,omitempty"`
	CommReconcile json.RawMessage `json:"comm_reconcile,omitempty"`
}

// kernelRate mirrors one entry of a -stage apply record's kernels array.
type kernelRate struct {
	Kernel string  `json:"kernel"`
	GFlops float64 `json:"gflops"`
}

// stageRate mirrors one entry of a -stage full record's stages array.
type stageRate struct {
	Stage  string  `json:"stage"`
	GFlops float64 `json:"gflops"`
}

// entry is one named rate of a kernels or stages array.
type entry struct {
	name   string
	gflops float64
}

// gateEntries checks that every entry the reference tracks is present
// in the fresh record and within tolerance of its reference rate. It
// reports whether any entry failed.
func gateEntries(what string, ref, got []entry, tol float64) (failed bool) {
	fresh := map[string]float64{}
	for _, e := range got {
		fresh[e.name] = e.gflops
	}
	for _, re := range ref {
		g, ok := fresh[re.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: %s %s in reference but missing from new record\n", what, re.name)
			failed = true
			continue
		}
		if re.gflops <= 0 || g <= 0 {
			fmt.Fprintf(os.Stderr, "benchguard: %s %s has non-positive gflops (ref %.2f, new %.2f)\n",
				what, re.name, re.gflops, g)
			failed = true
			continue
		}
		r := g / re.gflops
		fmt.Printf("  %-6s: %.2f GFLOP/s vs reference %.2f (%.0f%%)\n", re.name, g, re.gflops, 100*r)
		if r < 1-tol {
			fmt.Fprintf(os.Stderr, "benchguard: %s %s regressed %.0f%% (> %.0f%% allowed)\n",
				what, re.name, 100*(1-r), 100*tol)
			failed = true
		}
	}
	return failed
}

func kernelEntries(ks []kernelRate) []entry {
	out := make([]entry, len(ks))
	for i, k := range ks {
		out[i] = entry{k.Kernel, k.GFlops}
	}
	return out
}

func stageEntries(ss []stageRate) []entry {
	out := make([]entry, len(ss))
	for i, s := range ss {
		out[i] = entry{s.Stage, s.GFlops}
	}
	return out
}

// rate returns the record's guarded figure: throughput records (batch
// runs) track jobs/s, compute records GFLOP/s.
func (r record) rate() (float64, string) {
	if r.JobsPerSec > 0 {
		return r.JobsPerSec, "jobs/s"
	}
	return r.GFlops, "GFLOP/s"
}

func load(path string) (record, error) {
	var r record
	blob, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(blob, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.GFlops <= 0 && r.JobsPerSec <= 0 {
		return r, fmt.Errorf("%s: missing or non-positive gflops / jobs_per_sec", path)
	}
	// Parsed for forward compatibility, never compared.
	r.Reconcile, r.CommFit, r.CommReconcile = nil, nil, nil
	return r, nil
}

func main() {
	refPath := flag.String("ref", "", "checked-in reference BENCH_*.json")
	newPath := flag.String("new", "", "freshly measured BENCH_*.json")
	checkPath := flag.String("check", "", "schema-validate one BENCH_*.json and exit (no comparison)")
	tol := flag.Float64("tol", 0.25, "maximum allowed relative GFLOP/s regression")
	flag.Parse()
	// -check accepts records whose figures are environment-bound rather
	// than trend-tracked (the commcal cluster record): the committed file
	// must parse with a positive rate, but is never compared to a fresh
	// measurement.
	if *checkPath != "" {
		if *refPath != "" || *newPath != "" {
			fmt.Fprintln(os.Stderr, "benchguard: -check excludes -ref/-new")
			os.Exit(2)
		}
		r, err := load(*checkPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if r.Schema < currentSchema {
			fmt.Fprintf(os.Stderr, "benchguard: warning: %s has schema %d, current is %d\n",
				*checkPath, r.Schema, currentSchema)
		}
		rate, unit := r.rate()
		fmt.Printf("%s: %s %dx%d schema %d, %.2f %s — schema OK\n",
			*checkPath, r.Experiment, r.M, r.N, r.Schema, rate, unit)
		return
	}
	if *refPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "usage: benchguard -ref <committed.json> -new <measured.json> [-tol 0.25] | benchguard -check <committed.json>")
		os.Exit(2)
	}
	ref, err := load(*refPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	got, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if ref.Schema < currentSchema {
		// Warn, don't fail: old records stay comparable, but the noise
		// nudges whoever refreshes the reference next to re-measure.
		fmt.Fprintf(os.Stderr, "benchguard: warning: reference %s has schema %d, current is %d; consider re-measuring the committed record\n",
			*refPath, ref.Schema, currentSchema)
	}
	if ref.Experiment != got.Experiment || ref.M != got.M || ref.N != got.N ||
		ref.NB != got.NB || ref.KU != got.KU || ref.Workers != got.Workers ||
		ref.Jobs != got.Jobs {
		fmt.Fprintf(os.Stderr, "benchguard: configurations differ: ref %+v vs new %+v\n", ref, got)
		os.Exit(2)
	}
	refRate, unit := ref.rate()
	gotRate, _ := got.rate()
	ratio := gotRate / refRate
	fmt.Printf("%s %dx%d: %.2f %s vs reference %.2f (%.0f%%)\n",
		ref.Experiment, ref.M, ref.N, gotRate, unit, refRate, 100*ratio)
	failed := false
	if ratio < 1-*tol {
		fmt.Fprintf(os.Stderr, "benchguard: %s regressed %.0f%% (> %.0f%% allowed)\n",
			unit, 100*(1-ratio), 100**tol)
		failed = true
	}
	// Per-entry gates of an apply or full record: every kernel or stage
	// the reference tracks must be present in the fresh record and
	// within tolerance.
	if gateEntries("kernel", kernelEntries(ref.Kernels), kernelEntries(got.Kernels), *tol) {
		failed = true
	}
	if gateEntries("stage", stageEntries(ref.Stages), stageEntries(got.Stages), *tol) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
