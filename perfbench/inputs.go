package main

import (
	"fmt"
	"math/rand"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/internal/latms"
)

// spec is one latms input: shape, spectrum mode and condition number.
// Wide shapes (M < N) are generated as the N×M matrix and transposed, so
// every input of every workload has a known spectrum.
type spec struct {
	M, N int
	Mode latms.Mode
	Cond float64
}

func (s spec) String() string {
	return fmt.Sprintf("%dx%d mode=%d cond=%g", s.M, s.N, s.Mode, s.Cond)
}

// input is a generated matrix with its prescribed singular values.
type input struct {
	spec
	Kind  bidiag.JobKind
	A     *bidiag.Dense
	Sigma []float64 // descending, min(M, N) entries
}

// libWorkload is a library workload: one caller, back to back, cycling
// through Copies distinct matrices of each spec in Cycle.
type libWorkload struct {
	Name   string
	Kind   bidiag.JobKind
	Cycle  []spec
	Copies int
}

// The library workloads. The fixed option set is Options{Auto, Workers: 2}:
// the planner resolves every other knob. README.md gives the reason for
// each workload and the layer it puts on the critical path.
var libraryWorkloads = []libWorkload{
	{
		Name:   "values-square",
		Kind:   bidiag.JobSingularValues,
		Cycle:  []spec{{1024, 1024, latms.Geometric, 1e6}},
		Copies: 2,
	},
	{
		Name:   "values-tall",
		Kind:   bidiag.JobSingularValues,
		Cycle:  []spec{{16384, 256, latms.RandomLog, 1e6}},
		Copies: 2,
	},
	{
		Name: "svd-mixed",
		Kind: bidiag.JobSVD,
		Cycle: []spec{
			{256, 256, latms.RandomLog, 1e6},
			{256, 256, latms.Geometric, 1e12},
			{320, 256, latms.Arithmetic, 10},
			{256, 256, latms.OneLarge, 1e18},
		},
		Copies: 1,
	},
}

const serveWorkload = "serve-mixed"

func libraryWorkload(name string) *libWorkload {
	for i := range libraryWorkloads {
		if libraryWorkloads[i].Name == name {
			return &libraryWorkloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range libraryWorkloads {
		names = append(names, w.Name)
	}
	return append(names, serveWorkload)
}

// subSeed derives the seed of one generated matrix from the run seed, a
// stream tag and an index, so that input i of a run does not depend on
// how many other inputs were generated before it.
func subSeed(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)<<32 + uint64(i)
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return int64(x)
}

// generate builds one input from its own seed.
func generate(s spec, kind bidiag.JobKind, seed int64) input {
	rng := rand.New(rand.NewSource(seed))
	m, n := s.M, s.N
	if m < n {
		m, n = n, m
	}
	a, sigma := latms.Generate(rng, m, n, s.Mode, s.Cond)
	var d *bidiag.Dense
	if s.M >= s.N {
		d, _ = bidiag.NewDenseFromColMajor(m, n, a.Data)
	} else {
		// Transpose the tall m×n draw into the requested n×m.
		t := make([]float64, m*n)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				t[j+i*n] = a.Data[i+j*m]
			}
		}
		d, _ = bidiag.NewDenseFromColMajor(s.M, s.N, t)
	}
	return input{spec: s, Kind: kind, A: d, Sigma: sigma}
}

// Input streams: each set of inputs a run draws has its own tag.
const (
	streamLibrary = iota + 1
	streamServeTimed
	streamServeWarm
	streamServeKind
)

// libraryInput returns input i of a library workload's run: the specs in
// cycle order, Copies times over.
func (w *libWorkload) input(seed int64, i int) input {
	return generate(w.Cycle[i%len(w.Cycle)], w.Kind, subSeed(seed, streamLibrary, i))
}

// inputs returns every distinct matrix one run of w cycles through.
func (w *libWorkload) inputs(seed int64) []input {
	in := make([]input, len(w.Cycle)*w.Copies)
	for i := range in {
		in[i] = w.input(seed, i)
	}
	return in
}
