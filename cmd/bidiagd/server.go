package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"github.com/tiled-la/bidiag"
	"github.com/tiled-la/bidiag/httpapi"
	"github.com/tiled-la/bidiag/internal/obs"
)

// server is the daemon's HTTP surface over one bidiag.Service. Every
// server owns its metrics and trace store outright — two servers in one
// process (as in tests) never share or shadow each other's figures.
type server struct {
	svc    *bidiag.Service
	start  time.Time
	traces *traceStore
	// maxBody bounds a request body in bytes: admission queues bound how
	// many jobs wait, this bounds how big one job may be — without it a
	// single oversized POST could exhaust memory before backpressure
	// ever fires.
	maxBody int64
}

// defaultMaxBody admits matrices up to roughly 1500² in JSON form.
const defaultMaxBody = 32 << 20

// newMux wires the daemon's routes. maxBody ≤ 0 selects defaultMaxBody.
func newMux(svc *bidiag.Service, start time.Time, maxBody int64) *http.ServeMux {
	if maxBody <= 0 {
		maxBody = defaultMaxBody
	}
	s := &server{svc: svc, start: start, maxBody: maxBody, traces: newTraceStore(traceStoreCap)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/singular-values", s.handleSingularValues)
	mux.HandleFunc("POST /v1/svd", s.handleSVD)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.HandleFunc("GET /debug/plans", s.handlePlans)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// handleMetrics serves the Prometheus text exposition. The registry is
// rebuilt per scrape over ONE Stats snapshot, so every series in a
// response is drawn from the same instant.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.svc.Stats()
	reg := obs.NewRegistry()
	uptime := time.Since(s.start).Seconds()
	gauge := func(name, help string, v float64) { reg.Gauge(name, help, func() float64 { return v }) }
	counter := func(name, help string, v float64) { reg.Counter(name, help, func() float64 { return v }) }

	gauge("bidiagd_uptime_seconds", "Seconds since the daemon started.", uptime)
	gauge("bidiagd_workers", "Shared pool size.", float64(st.Workers))
	gauge("bidiagd_inflight_jobs", "Jobs currently executing.", float64(st.InFlight))
	reg.LabeledGauge("bidiagd_queue_depth", "Instantaneous admission-queue depth.", func() []obs.LabeledValue {
		return []obs.LabeledValue{
			{Label: `queue="solo"`, Value: float64(st.QueueLen)},
			{Label: `queue="gang"`, Value: float64(st.GangQueueLen)},
		}
	})
	// Total admission capacity: each of the two queues is bounded by
	// QueueCap.
	gauge("bidiagd_queue_capacity", "Total admission capacity across both queues.", float64(2*st.QueueCap))
	gauge("bidiagd_workspace_bytes", "Total scratch-arena footprint of the pool's workers.", float64(st.WorkspaceBytes))
	gauge("bidiagd_cache_entries", "Entries in the result cache.", float64(st.CacheEntries))
	gauge("bidiagd_cache_bytes", "Bytes held by the result cache.", float64(st.CacheBytes))
	gauge("bidiagd_cache_capacity_bytes", "Result cache budget.", float64(st.CacheCap))
	reg.LabeledCounter("bidiagd_jobs_total", "Finished jobs by outcome.", func() []obs.LabeledValue {
		return []obs.LabeledValue{
			{Label: `result="done"`, Value: float64(st.JobsDone)},
			{Label: `result="failed"`, Value: float64(st.JobsFailed)},
			{Label: `result="cancelled"`, Value: float64(st.JobsCancelled)},
		}
	})
	counter("bidiagd_gang_batches_total", "Executed gang graphs.", float64(st.GangBatches))
	counter("bidiagd_gang_jobs_total", "Member jobs carried by gang graphs.", float64(st.GangJobs))
	counter("bidiagd_cache_hits_total", "Result-cache hits.", float64(st.CacheHits))
	counter("bidiagd_cache_misses_total", "Result-cache misses.", float64(st.CacheMisses))
	counter("bidiagd_trace_dropped_events_total", "Trace-ring events dropped by traced jobs whose rings overflowed (-trace-event-cap).", float64(st.TraceDropped))
	reg.Histogram("bidiagd_job_latency_seconds", "Job latency, enqueue to completion (cache hits included).", func() obs.HistogramSnapshot {
		return obs.HistogramSnapshot{Bounds: st.Latency.Bounds, Counts: st.Latency.Counts, Sum: st.Latency.Sum, Count: st.Latency.Count}
	})
	reg.Histogram("bidiagd_job_queue_wait_seconds", "Job queue wait, enqueue to dispatch.", func() obs.HistogramSnapshot {
		return obs.HistogramSnapshot{Bounds: st.QueueWait.Bounds, Counts: st.QueueWait.Counts, Sum: st.QueueWait.Sum, Count: st.QueueWait.Count}
	})
	pc := s.svc.PlanCounters()
	reg.LabeledCounter("bidiagd_plan_decisions_total", "Options.Auto plan decisions by source.", func() []obs.LabeledValue {
		return []obs.LabeledValue{
			{Label: `source="model"`, Value: float64(pc.Model)},
			{Label: `source="explore"`, Value: float64(pc.Explore)},
			{Label: `source="tuned"`, Value: float64(pc.Tuned)},
		}
	})
	counter("bidiagd_plan_promotions_total", "Plan profiles promoted to a measured winner.", float64(pc.Promotions))
	counter("bidiagd_plan_profiles_loaded_total", "Plan profiles restored from disk at startup.", float64(pc.Loaded))
	gauge("bidiagd_plan_profiles", "Shape-bucket plan profiles currently held.", float64(pc.Profiles))
	reg.ServeHTTP(w, r)
}

// handlePlans serves the autotuner's profile document: every shape
// bucket's candidate set with model costs, measured GFLOP/s and the
// promotion state — the same versioned JSON -profiles persists.
func (s *server) handlePlans(w http.ResponseWriter, r *http.Request) {
	doc, err := s.svc.PlanState()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

// handleVars serves the JSON snapshot previously exported through the
// process-global expvar registry; keeping it per-instance means two
// servers in one process report their own services.
func (s *server) handleVars(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"bidiagd": s.snapshot()})
}

// snapshot assembles the /debug/vars figure: service counters plus the
// derived rates the dashboards want.
func (s *server) snapshot() map[string]any {
	st := s.svc.Stats()
	pc := s.svc.PlanCounters()
	up := time.Since(s.start).Seconds()
	hitRate := 0.0
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		hitRate = float64(st.CacheHits) / float64(lookups)
	}
	jobsPerSec := 0.0
	if up > 0 {
		jobsPerSec = float64(st.JobsDone) / up
	}
	return map[string]any{
		"uptime_seconds":   up,
		"workers":          st.Workers,
		"inflight":         st.InFlight,
		"queue_depth":      st.QueueLen + st.GangQueueLen,
		"solo_queue_depth": st.QueueLen,
		"gang_queue_depth": st.GangQueueLen,
		// Total admission capacity: each of the two queues is bounded by
		// QueueDepth, and queue_depth above sums both.
		"queue_capacity":  2 * st.QueueCap,
		"jobs_done":       st.JobsDone,
		"jobs_failed":     st.JobsFailed,
		"jobs_cancelled":  st.JobsCancelled,
		"jobs_per_second": jobsPerSec,
		"latency_p50_ms":  float64(st.P50) / float64(time.Millisecond),
		"latency_p99_ms":  float64(st.P99) / float64(time.Millisecond),
		"gang_batches":    st.GangBatches,
		"gang_jobs":       st.GangJobs,
		"cache_hits":      st.CacheHits,
		"cache_misses":    st.CacheMisses,
		"cache_hit_rate":  hitRate,
		"cache_entries":   st.CacheEntries,
		"cache_bytes":     st.CacheBytes,
		"workspace_bytes": st.WorkspaceBytes,
		"plan_decisions": map[string]any{
			"model":   pc.Model,
			"explore": pc.Explore,
			"tuned":   pc.Tuned,
		},
		"plan_promotions": pc.Promotions,
		"plan_profiles":   pc.Profiles,
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"workers":        s.svc.Stats().Workers,
	})
}

func (s *server) handleSingularValues(w http.ResponseWriter, r *http.Request) {
	s.handleJob(w, r, bidiag.JobSingularValues)
}

func (s *server) handleSVD(w http.ResponseWriter, r *http.Request) {
	s.handleJob(w, r, bidiag.JobSVD)
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request, kind bidiag.JobKind) {
	var req httpapi.Job
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(body)
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes (-max-body-mb raises the cap)", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	a, err := req.Dense()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	opts, err := req.Options.ToOptions()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// ?trace=1 records the per-task timeline: the job runs solo,
	// bypasses the cache, and the response's job_id keys
	// GET /debug/trace/{job_id}.
	trace := false
	switch strings.ToLower(r.URL.Query().Get("trace")) {
	case "", "0", "false":
	case "1", "true", "yes":
		trace = true
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("invalid trace value %q", r.URL.Query().Get("trace")))
		return
	}
	begin := time.Now()
	res, err := s.svc.Do(r.Context(), bidiag.JobRequest{Kind: kind, A: a, Opts: opts, Trace: trace})
	if err != nil {
		code := httpapi.ErrorStatus(err)
		switch {
		case code == http.StatusTooManyRequests:
			w.Header().Set("Retry-After", "1")
		case code == http.StatusInternalServerError && r.Context().Err() != nil:
			// The client went away; nothing useful to write.
			log.Printf("job cancelled: %v", err)
			return
		}
		httpError(w, code, err)
		return
	}
	ms := float64(time.Since(begin)) / float64(time.Millisecond)
	jobID := ""
	if trace && len(res.Timeline) > 0 {
		jobID = s.traces.put(res.Timeline)
	}
	if kind == bidiag.JobSVD {
		writeJSON(w, http.StatusOK, httpapi.SVDResponse{
			U: httpapi.FromDense(res.SVD.U), S: res.SVD.S, V: httpapi.FromDense(res.SVD.V),
			CacheHit: res.CacheHit, Ms: ms, JobID: jobID,
		})
		return
	}
	writeJSON(w, http.StatusOK, httpapi.ValuesResponse{S: res.Values, CacheHit: res.CacheHit, Ms: ms, JobID: jobID})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("write response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, httpapi.ErrorResponse{Error: err.Error()})
}

// traceStoreCap bounds how many finished job timelines a server retains
// for /debug/trace: old entries are evicted FIFO, so a long-lived daemon
// holds at most the most recent traced jobs.
const traceStoreCap = 64

// traceStore retains the timelines of recently traced jobs, keyed by the
// job ID returned in the POST response.
type traceStore struct {
	mu    sync.Mutex
	next  uint64
	cap   int
	order []string
	byID  map[string][]bidiag.TaskSpan
}

func newTraceStore(cap int) *traceStore {
	return &traceStore{cap: cap, byID: make(map[string][]bidiag.TaskSpan)}
}

// put stores a timeline and returns its job ID, evicting the oldest
// entry once the store is full.
func (ts *traceStore) put(spans []bidiag.TaskSpan) string {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.next++
	id := fmt.Sprintf("j%06d", ts.next)
	if len(ts.order) == ts.cap {
		delete(ts.byID, ts.order[0])
		ts.order = ts.order[1:]
	}
	ts.order = append(ts.order, id)
	ts.byID[id] = spans
	return id
}

func (ts *traceStore) get(id string) ([]bidiag.TaskSpan, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	spans, ok := ts.byID[id]
	return spans, ok
}

// chromeEvent is one complete ("X"-phase) slice in the Chrome-tracing
// JSON array format, the shape chrome://tracing and Perfetto ingest.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// handleTrace renders a stored timeline as a Chrome-tracing JSON array:
// load it in Perfetto (ui.perfetto.dev) or chrome://tracing, one track
// per worker.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans, ok := s.traces.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no trace for job %q (traces are kept for the last %d traced jobs)", id, traceStoreCap))
		return
	}
	events := make([]chromeEvent, len(spans))
	for i, sp := range spans {
		events[i] = chromeEvent{
			Name: sp.Kernel,
			Cat:  "task",
			Ph:   "X",
			TS:   float64(sp.Start) / float64(time.Microsecond),
			Dur:  float64(sp.End-sp.Start) / float64(time.Microsecond),
			TID:  sp.Worker,
			Args: map[string]any{"i": sp.I, "j": sp.J, "k": sp.K, "flops": sp.Flops},
		}
	}
	writeJSON(w, http.StatusOK, events)
}
