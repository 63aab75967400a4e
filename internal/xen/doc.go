// Package xen models the hypervisor side of the testbed: a host running
// Xen 4.2.5 with a dom-0, a set of paravirtualised guests, and a
// credit-scheduler-like CPU arbiter. It implements the paper's Eq. 2,
//
//	CPU(h,t) = CPUVMM(V(h,t)) + Σ_{v∈V(h,t)} CPU(v,t) + CPUmigr(h,t),
//
// including the saturation behaviour the paper leans on: once aggregate
// demand exceeds the machine's thread count, allocations are scaled down
// proportionally ("multiplexing") and total host CPU — hence power — goes
// flat, while the migration helper's share shrinks and with it the
// achievable transfer bandwidth.
//
// Position in the data flow (see ARCHITECTURE.md): the simulation kernel
// (internal/sim) calls Host.Schedule once per 100 ms step to arbitrate
// CPU, then Host.Step to advance guest memory dirtying, then Host.Load to
// assemble the component load the hardware power model (internal/hw)
// evaluates. Scheduling fills a dense, slot-indexed Allocation reused
// across steps — Host.GuestIndex resolves a guest name to its slot once,
// and Allocation.Guest reads by slot thereafter — keeping the kernel's
// hot loop allocation-free. Host.Create is the one xl command the
// kernel needs: it creates, attaches and starts a guest by instance
// type.
package xen
