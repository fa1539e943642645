package httpapi_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/httpapi"
)

// TestGoldenJobRequest pins the v1 request wire format: these literal
// bodies are what deployed clients send today. If decoding them ever
// changes meaning, the API needs a new version prefix, not a new tag.
func TestGoldenJobRequest(t *testing.T) {
	const full = `{
		"m": 2, "n": 2,
		"data": [1, 2, 3, 4],
		"options": {
			"nb": 8, "tree": "greedy", "algorithm": "rbidiag",
			"workers": 3, "gamma": 2, "bnd2bd": "pipelined",
			"window": 5, "auto": true
		}
	}`
	var job httpapi.Job
	if err := json.Unmarshal([]byte(full), &job); err != nil {
		t.Fatal(err)
	}
	if job.M != 2 || job.N != 2 || len(job.Data) != 4 || job.Data[2] != 3 {
		t.Fatalf("matrix fields: %+v", job.Matrix)
	}
	o := job.Options
	if o == nil || o.NB != 8 || o.Tree != "greedy" || o.Algorithm != "rbidiag" ||
		o.Workers != 3 || o.Gamma != 2 || o.BND2BD != "pipelined" || o.Window != 5 || !o.Auto {
		t.Fatalf("options: %+v", o)
	}
	opts, err := o.ToOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Tree != bidiag.Greedy || opts.Algorithm != bidiag.RBidiag ||
		opts.BND2BD != bidiag.BND2BDPipelined || opts.NB != 8 || !opts.Auto {
		t.Fatalf("lowered options: %+v", opts)
	}

	// An absent options object must stay distinguishable from {} after
	// decoding: nil lowers to the planner, {} to library defaults.
	var bare httpapi.Job
	if err := json.Unmarshal([]byte(`{"m":1,"n":1,"data":[5]}`), &bare); err != nil {
		t.Fatal(err)
	}
	if bare.Options != nil {
		t.Fatal("absent options decoded non-nil")
	}
	auto, err := bare.Options.ToOptions()
	if err != nil || !auto.Auto {
		t.Fatalf("nil options must lower to Auto: %+v %v", auto, err)
	}
	var empty httpapi.Job
	if err := json.Unmarshal([]byte(`{"m":1,"n":1,"data":[5],"options":{}}`), &empty); err != nil {
		t.Fatal(err)
	}
	if empty.Options == nil {
		t.Fatal("explicit {} options decoded nil")
	}
	def, err := empty.Options.ToOptions()
	if err != nil || def.Auto {
		t.Fatalf("empty options must keep library defaults: %+v %v", def, err)
	}
}

// TestGoldenResponses pins the response encodings byte-for-byte.
func TestGoldenResponses(t *testing.T) {
	vr, err := json.Marshal(httpapi.ValuesResponse{S: []float64{2, 1}, CacheHit: true, Ms: 1.5, JobID: "j000001"})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"s":[2,1],"cache_hit":true,"ms":1.5,"job_id":"j000001"}`; string(vr) != want {
		t.Fatalf("values response:\n got %s\nwant %s", vr, want)
	}
	// job_id must vanish for untraced jobs.
	vr, _ = json.Marshal(httpapi.ValuesResponse{S: []float64{1}, Ms: 2})
	if want := `{"s":[1],"cache_hit":false,"ms":2}`; string(vr) != want {
		t.Fatalf("untraced values response:\n got %s\nwant %s", vr, want)
	}

	sr, err := json.Marshal(httpapi.SVDResponse{
		U:  httpapi.Matrix{M: 1, N: 1, Data: []float64{1}},
		S:  []float64{3},
		V:  httpapi.Matrix{M: 1, N: 1, Data: []float64{-1}},
		Ms: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"u":{"m":1,"n":1,"data":[1]},"s":[3],"v":{"m":1,"n":1,"data":[-1]},"cache_hit":false,"ms":0.25}`
	if string(sr) != want {
		t.Fatalf("svd response:\n got %s\nwant %s", sr, want)
	}

	er, _ := json.Marshal(httpapi.ErrorResponse{Error: "boom"})
	if want := `{"error":"boom"}`; string(er) != want {
		t.Fatalf("error response: %s", er)
	}
}

// TestMatrixRoundTrip checks the wire matrix <-> Dense conversions and
// their validation.
func TestMatrixRoundTrip(t *testing.T) {
	m := httpapi.Matrix{M: 3, N: 2, Data: []float64{1, 2, 3, 4, 5, 6}}
	d, err := m.Dense()
	if err != nil {
		t.Fatal(err)
	}
	if d.At(1, 1) != 5 { // column-major: data[1+1*3]
		t.Fatalf("At(1,1) = %v, want 5", d.At(1, 1))
	}
	back := httpapi.FromDense(d)
	if back.M != 3 || back.N != 2 {
		t.Fatalf("round-trip shape %dx%d", back.M, back.N)
	}
	for i, v := range m.Data {
		if back.Data[i] != v {
			t.Fatalf("round-trip data[%d] = %v, want %v", i, back.Data[i], v)
		}
	}

	for _, bad := range []httpapi.Matrix{
		{M: 0, N: 1, Data: nil},
		{M: 2, N: 2, Data: []float64{1}},
	} {
		if _, err := bad.Dense(); err == nil {
			t.Fatalf("invalid matrix %+v accepted", bad)
		}
	}
	if _, err := (&httpapi.Options{Tree: "bogus"}).ToOptions(); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("bogus tree accepted: %v", err)
	}
}

// TestCacheKeyStable pins the router's hashing contract: the exported
// key is deterministic, content-sensitive, and independent of the
// calling process's core count.
func TestCacheKeyStable(t *testing.T) {
	a, err := httpapi.Matrix{M: 2, N: 2, Data: []float64{1, 2, 3, 4}}.Dense()
	if err != nil {
		t.Fatal(err)
	}
	b, err := httpapi.Matrix{M: 2, N: 2, Data: []float64{1, 2, 3, 5}}.Dense()
	if err != nil {
		t.Fatal(err)
	}
	k1 := bidiag.CacheKey(bidiag.JobSingularValues, a, nil)
	if k2 := bidiag.CacheKey(bidiag.JobSingularValues, a, nil); k2 != k1 {
		t.Fatal("key not deterministic")
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", k1)
	}
	if bidiag.CacheKey(bidiag.JobSingularValues, b, nil) == k1 {
		t.Fatal("key ignores matrix content")
	}
	if bidiag.CacheKey(bidiag.JobSVD, a, nil) == k1 {
		t.Fatal("key ignores job kind")
	}
	if bidiag.CacheKey(bidiag.JobSingularValues, a, &bidiag.Options{NB: 32}) == k1 {
		t.Fatal("key ignores options")
	}
}

// TestErrorStatus pins the status mapping of job errors: input the
// library rejects is a client error, never a 500.
func TestErrorStatus(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("job 3: %w", bidiag.ErrNonFinite), http.StatusBadRequest},
		{bidiag.ErrOverloaded, http.StatusTooManyRequests},
		{fmt.Errorf("submit: %w", bidiag.ErrServiceClosed), http.StatusServiceUnavailable},
		{errors.New("bdsqr: no convergence"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := httpapi.ErrorStatus(c.err); got != c.want {
			t.Errorf("ErrorStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
