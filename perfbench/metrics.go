package main

// metricDef is one catalogue entry, mirrored in BENCHMARK.json (the
// self-test checks the two agree).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the library or the daemon sees,
// measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_s", "s", "lower"},
	{"latency_p99_s", "s", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"cpu_s_per_op", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// kernelKinds are the tile-kernel names a task timeline can carry.
var kernelKinds = []string{
	"GEQRT", "TSQRT", "TTQRT", "UNMQR", "TSMQR", "TTMQR",
	"GELQT", "TSLQT", "TTLQT", "UNMLQ", "TSMLQ", "TTMLQ",
	"BRDSEG", "LACPY", "LASET", "BANDCP",
}

// zeroFlopKinds move data without flops, so they get no GFLOP/s metric.
var zeroFlopKinds = map[string]bool{"LACPY": true, "LASET": true, "BANDCP": true}

// perLayer are the metrics of single layers, measured in the traced run
// from the calls into each layer's public functions.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"plan.autoplan_s", "s", "lower"},
		{"plan.decisions_model", "count", "higher"},
		{"plan.decisions_explore", "count", "lower"},
		{"plan.decisions_tuned", "count", "higher"},
		{"core.ge2bnd_s", "s", "lower"},
		{"core.ge2bnd_gflops", "GFlop/s", "higher"},
		{"band.singular_values_s", "s", "lower"},
	}
	for _, k := range kernelKinds {
		defs = append(defs, metricDef{"kernels." + k + ".busy_s", "s", "lower"})
		if !zeroFlopKinds[k] {
			defs = append(defs, metricDef{"kernels." + k + ".gflops", "GFlop/s", "higher"})
		}
		defs = append(defs, metricDef{"kernels." + k + ".tasks", "count", "lower"})
	}
	return append(defs,
		metricDef{"sched.tasks", "count", "lower"},
		metricDef{"sched.span_s", "s", "lower"},
		metricDef{"sched.idle_s", "s", "lower"},
		metricDef{"sched.utilization", "ratio", "higher"},
		metricDef{"bidiag.finish_s", "s", "lower"},
		metricDef{"serve.job_latency_mean_s", "s", "lower"},
		metricDef{"serve.queue_wait_mean_s", "s", "lower"},
		metricDef{"serve.cache_hit_share", "ratio", "higher"},
		metricDef{"serve.gang_job_share", "ratio", "higher"},
		metricDef{"serve.jobs_failed", "count", "lower"},
		metricDef{"serve.workspace_mb", "MiB", "lower"},
		metricDef{"http.overhead_mean_s", "s", "lower"},
		metricDef{"mem.alloc_mb_per_op", "MiB", "lower"},
		metricDef{"trace.overhead_share", "ratio", "lower"},
	)
}()

// units maps every metric name to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		u[m.Name] = m.Unit
	}
	return u
}()
