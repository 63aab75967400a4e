package scenario

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"repro/internal/hw"
	"repro/internal/workload"
)

// This file expands cluster fleet templates (ClusterSpec.Fleet) into
// concrete host lists. Expansion is pure data → data and fully
// deterministic: the same spec (name, seed, groups) expands to the same
// hosts — and therefore the same lowered migration scenarios and
// run-cache keys — in every session.

// hostCount is the cluster's total population: explicit hosts plus
// every fleet replica.
func (c *ClusterSpec) hostCount() int {
	n := len(c.Hosts)
	for _, g := range c.Fleet {
		if g.Count > 0 {
			n += g.Count
		}
	}
	return n
}

// replicaNames stamps the names of count replicas of a template name: a
// '-' and the index zero-padded to four digits ("web-0007"). The names
// are slices of one string, so a group's names cost a few allocations
// however many replicas it has.
func replicaNames(name string, count int) []string {
	buf := make([]byte, 0, count*(len(name)+7)) // indices stay below 10^6
	ends := make([]int, count)
	for i := range ends {
		buf = append(buf, name...)
		buf = append(buf, '-')
		for pad := 1000; pad > 1 && i < pad; pad /= 10 {
			buf = append(buf, '0')
		}
		buf = strconv.AppendInt(buf, int64(i), 10)
		ends[i] = len(buf)
	}
	all, names, start := string(buf), make([]string, count), 0
	for i, end := range ends {
		names[i], start = all[start:end], end
	}
	return names
}

// hostPath is the JSON path of expanded host hi: an explicit host, or a
// replica counted within its fleet group.
func (c *ClusterSpec) hostPath(hi int) string {
	if hi < len(c.Hosts) {
		return fmt.Sprintf("cluster.hosts[%d]", hi)
	}
	gi, i := 0, hi-len(c.Hosts)
	for ; i >= c.Fleet[gi].Count; gi++ {
		i -= c.Fleet[gi].Count
	}
	return fmt.Sprintf("cluster.fleet[%d].replica[%d]", gi, i)
}

// fleetJitter derives replica i's phase lead-in, in whole seconds of
// [0, maxS): a splitmix64 finalizer over the scenario seed, the group
// name and the replica index. Stable across sessions and machines by
// construction — it feeds compiled timelines and so cache identities.
func fleetJitter(seed int64, group string, i int, maxS int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(group))
	x := uint64(seed) + h.Sum64() + uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x % uint64(maxS))
}

// validateFleetGroups checks the group templates under
// cluster.fleet[g] paths. Per-replica properties (duplicate names
// against explicit hosts, VM field ranges) are checked by the expanded
// host validation afterwards.
func (s *Spec) validateFleetGroups() error {
	name := s.Name
	cat := hw.Catalog()
	seen := make(map[string]int, len(s.Cluster.Fleet))
	// Total-population bound, summed in int64 so absurd per-group counts
	// cannot wrap the check they are being checked against.
	total := int64(len(s.Cluster.Hosts))
	for gi, g := range s.Cluster.Fleet {
		path := fmt.Sprintf("cluster.fleet[%d]", gi)
		if !validName(g.Name) {
			return errf(name, path+".name", "must be non-empty lowercase [a-z0-9._-], got %q", g.Name)
		}
		if prev, dup := seen[g.Name]; dup {
			return errf(name, path+".name", "group %q already declared at cluster.fleet[%d]", g.Name, prev)
		}
		seen[g.Name] = gi
		if g.Count < 1 || g.Count > MaxFleetReplicas {
			return errf(name, path+".count", "must be 1..%d, got %d", MaxFleetReplicas, g.Count)
		}
		total += int64(g.Count)
		if total > MaxFleetHosts {
			return errf(name, path+".count", "cluster exceeds %d hosts in total (group %q brings it to %d)", MaxFleetHosts, g.Name, total)
		}
		if _, ok := cat[g.Machine]; !ok {
			return errf(name, path+".machine", "unknown machine model %q (catalog: %s)", g.Machine, hw.Models())
		}
		if g.PhaseJitterS < 0 {
			return errf(name, path+".phase_jitter_s", "must be non-negative, got %v", g.PhaseJitterS)
		}
		// A lead-in is shorter than the jitter, so a jitter a Duration
		// holds bounds every lead-in's duration too.
		if _, err := seconds(name, path+".phase_jitter_s", g.PhaseJitterS); err != nil {
			return err
		}
		if g.PhaseJitterS > 0 {
			if g.PhaseJitterS < 1 || g.PhaseJitterS != math.Trunc(g.PhaseJitterS) {
				return errf(name, path+".phase_jitter_s", "lead-ins are whole seconds; must be 0 or a whole number of seconds >= 1, got %v", g.PhaseJitterS)
			}
			phased := false
			for vi, v := range g.VMs {
				if len(v.Phases) == 0 {
					continue
				}
				phased = true
				// The lead-in holds the timeline's entry intensity as a
				// steady phase; Level 0 means "factor 1" in the phase
				// grammar, so an entry factor of exactly 0 cannot be
				// expressed and is refused.
				if entry := v.Phases[0].factor(0); entry <= 0 {
					return errf(name, fmt.Sprintf("%s.vms[%d].phases[0]", path, vi),
						"entry intensity factor is %v; a jittered lead-in cannot hold it (factors must be positive)", entry)
				}
			}
			if !phased {
				return errf(name, path+".phase_jitter_s", "no template VM has phases; there is no timeline to offset")
			}
		}
	}
	return nil
}

// expandedClusterHosts returns the cluster's concrete host population:
// explicit hosts followed by every fleet replica. Replica names, guests
// and lead-in phase lists are slices of a few shared arrays, so the
// expansion's allocations do not grow with the replica count. A replica
// VM without a lead-in shares its template's phase list. Error paths
// come from hostPath, only for the error returned.
func (s *Spec) expandedClusterHosts() []ClusterHostSpec {
	c := s.Cluster
	hosts := make([]ClusterHostSpec, 0, c.hostCount())
	hosts = append(hosts, c.Hosts...)
	nvms := 0
	for _, g := range c.Fleet {
		nvms += g.Count * len(g.VMs)
	}
	vms := make([]ClusterVMSpec, 0, nvms)
	var phases []PhaseSpec // jittered replicas' phase lists
	seed := s.EffectiveSeed()
	for _, g := range c.Fleet {
		hostNames := replicaNames(g.Name, g.Count)
		vmNames := make([][]string, len(g.VMs))
		for vi, v := range g.VMs {
			vmNames[vi] = replicaNames(v.Name, g.Count)
		}
		for i := 0; i < g.Count; i++ {
			first := len(vms)
			for vi, v := range g.VMs {
				rv := v
				rv.Name = vmNames[vi][i]
				if g.PhaseJitterS >= 1 && len(v.Phases) > 0 {
					if lead := fleetJitter(seed, g.Name, i, int64(g.PhaseJitterS)); lead > 0 {
						// Hold the timeline's entry intensity: a steady span
						// at the first phase's position-0 factor.
						start := len(phases)
						phases = append(phases, PhaseSpec{
							Name:      "lead-in",
							Kind:      string(workload.PhaseSteady),
							DurationS: float64(lead),
							Level:     v.Phases[0].factor(0),
						})
						phases = append(phases, v.Phases...)
						rv.Phases = phases[start:len(phases):len(phases)]
					}
				}
				vms = append(vms, rv)
			}
			hosts = append(hosts, ClusterHostSpec{
				Name:    hostNames[i],
				Machine: g.Machine,
				VMs:     vms[first:len(vms):len(vms)],
			})
		}
	}
	return hosts
}
