// Package mem models guest memory at page granularity: the dirty-page
// bitmap Xen's shadow mode maintains during live migration, and the
// dirtying processes generated by workloads. The dirtying ratio DR(v,t) of
// the paper's Eq. 1 — dirty pages over total pages — is computed here.
//
// Position in the data flow (see ARCHITECTURE.md): mem sits at the bottom
// of the simulation stack. Workload profiles (internal/workload)
// instantiate a Dirtier — uniform or hot/cold-skewed — against a VM's
// Image; the migration engine consumes the bitmap round by round during
// pre-copy. The Dirtier step loop is the hottest code in memory-heavy
// simulations (~98% of a MEMLOAD run), which is why it draws from an
// inline splitmix64 generator instead of math/rand and keeps the
// generator state, the bitmap and the new-page count in locals for the
// whole step. Entry points: NewImage, NewUniformDirtier,
// NewHotColdDirtier.
package mem
