package main

// prediction records, before any change is measured, which end-to-end
// metric a per-layer metric should move and on which workload, and a
// workload (with its end-to-end metric, when that differs) on which the
// same layer does no work, so a change to it should move nothing there
// ("" when every workload uses the layer). A traced run's record lists
// the predictions about its workload.
type prediction struct {
	Layer      string `json:"layer"`
	Moves      string `json:"moves"`
	Workload   string `json:"workload"`
	Idle       string `json:"idle,omitempty"`
	IdleMetric string `json:"idle_metric,omitempty"` // "" for Moves
}

var predictions = []prediction{
	// Compiling specs is set-up for the command-line workloads; the
	// daemon compiles on every request.
	{"scenario.setup_pct", "setup_s", "fleet-day", "paper-cold", ""},
	{"scenario.setup_pct", "setup_s", "library", "paper-cold", ""},
	{"scenario.compile_warm_pct", "warm_ms", "daemon-mix", "paper-cold", ""},

	// The kernel runs in every workload's cold operations and in no warm
	// pass.
	{"sim.kernel.busy_s", "cold_ms", "paper-cold", "fleet-day", "warm_ms"},
	{"sim.kernel.busy_s", "cold_ms", "library", "library", "warm_ms"},
	{"sim.kernel.ms_per_run", "cold_ms", "daemon-mix", "daemon-mix", "warm_ms"},
	{"sim.kernel.cold_pct", "cold_ms", "paper-cold", "fleet-day", "warm_ms"},
	{"sim.kernel.warm_runs", "warm_ms", "library", "", ""},
	{"sim.cache.hit_ratio", "cold_ms", "paper-cold", "", ""},

	// Store reads and artefact decoding are the library's warm pass and a
	// daemon restart; publishes and locks are its cold pass.
	{"sim.store.warm_pct", "warm_ms", "library", "paper-cold", ""},
	{"sim.cache.decode_warm_pct", "warm_ms", "library", "fleet-day", ""},
	{"sim.store.get_mb", "setup_s", "daemon-mix", "paper-cold", ""},
	{"sim.store.cold_pct", "cold_ms", "library", "paper-cold", ""},
	{"sim.cache.close_pct", "cold_ms", "library", "fleet-day", ""},
	{"sim.store.put_calls", "cold_ms", "daemon-mix", "fleet-day", ""},
	{"sim.cache.store_errors", "cold_ms", "library", "", ""},

	// The paper session's driver, fitting, tables and rendering are its
	// warm pass.
	{"experiments.campaign_warm_pct", "warm_ms", "paper-cold", "fleet-day", ""},
	{"experiments.campaign_warm_pct", "warm_ms", "library", "fleet-day", ""},
	{"experiments.fit_warm_pct", "warm_ms", "paper-cold", "library", ""},
	{"experiments.tables_warm_pct", "warm_ms", "paper-cold", "library", ""},
	{"report.render_warm_pct", "warm_ms", "paper-cold", "library", ""},

	// The plan-form executor, the cluster event loop and planning.
	{"dcsim.warm_pct", "warm_ms", "library", "fleet-day", ""},
	{"cluster.warm_pct", "warm_ms", "fleet-day", "paper-cold", ""},
	{"cluster.warm_pct", "cold_ms", "fleet-day", "paper-cold", ""},
	{"consolidation.warm_pct", "warm_ms", "fleet-day", "paper-cold", ""},
	{"consolidation.calls_per_round", "warm_ms", "fleet-day", "paper-cold", ""},

	// Rendering, the daemon's handler and the transport.
	{"service.render_warm_pct", "warm_ms", "fleet-day", "paper-cold", ""},
	{"service.handler_warm_pct", "warm_ms", "daemon-mix", "library", ""},
	{"service.transport_warm_pct", "warm_ms", "daemon-mix", "library", ""},
	{"service.status_200", "warm_ms", "daemon-mix", "library", ""},

	// Allocation and collection.
	{"runtime.alloc_mb_per_pass", "warm_ms", "fleet-day", "", ""},
	{"runtime.alloc_mb_per_pass", "peak_rss_mb", "fleet-day", "", ""},
	{"runtime.gc_cycles_per_pass", "warm_ms", "library", "", ""},
}

// predictionsFor lists the predictions that name workload.
func predictionsFor(workload string) []prediction {
	var out []prediction
	for _, p := range predictions {
		if p.Workload == workload || p.Idle == workload {
			out = append(out, p)
		}
	}
	return out
}
