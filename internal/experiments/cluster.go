package experiments

import (
	"repro/internal/cluster"
)

// RunCluster executes an N-host cluster timeline under this config's
// worker and cache policy — the uniform entry point runners use so
// cluster scenarios, like campaigns and scenario lists, inherit the
// session's concurrency budget and run cache. The timeline's own
// fields (hosts, policy, moves, seed) come from the cluster config;
// results are bit-identical for every worker count and cache setting.
// Setting workers, cache and context keeps a prepared config (a
// compiled scenario's, see cluster.Prepare) prepared, so its run skips
// the engine's validation and host layout.
func RunCluster(cfg Config, cc cluster.Config) (*cluster.Report, error) {
	cfg = cfg.withDefaults()
	cc.Workers = cfg.Workers
	cc.Cache = cfg.Cache
	cc.Ctx = cfg.context()
	return cluster.Run(cc)
}
