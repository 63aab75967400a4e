// Package units defines the physical quantities used throughout the WAVM3
// reproduction: power, energy, data sizes, page counts, bandwidth and
// utilisation. Quantities are small named float/int types so that function
// signatures document themselves and unit mistakes (e.g. passing megabytes
// where pages are expected) become type errors.
package units

import (
	"fmt"
	"time"
)

// Watts is instantaneous power drawn at the AC side of a host.
type Watts float64

// Joules is energy, the integral of power over time.
type Joules float64

// KiloJoules converts to kJ, the unit used by the paper's Table VII.
func (j Joules) KiloJoules() float64 { return float64(j) / 1e3 }

// Bytes is a data size.
type Bytes int64

// Common data sizes.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
)

// PageSize is the guest page size used by the paravirtualised VMs in the
// paper's testbed (x86, 4 KiB pages).
const PageSize Bytes = 4 * KiB

// Pages is a count of guest memory pages.
type Pages int64

// PagesOf returns the number of whole pages needed to hold n bytes.
func PagesOf(n Bytes) Pages {
	if n <= 0 {
		return 0
	}
	return Pages((n + PageSize - 1) / PageSize)
}

// Bytes returns the size of p pages.
func (p Pages) Bytes() Bytes { return Bytes(p) * PageSize }

// BitsPerSecond is network bandwidth.
type BitsPerSecond float64

// Common bandwidths.
const (
	Mbps BitsPerSecond = 1e6
	Gbps BitsPerSecond = 1e9
)

// BytesPerSecond converts a bandwidth to a byte rate.
func (b BitsPerSecond) BytesPerSecond() float64 { return float64(b) / 8 }

// BytesIn returns how many whole bytes can be moved at bandwidth b in d.
func (b BitsPerSecond) BytesIn(d time.Duration) Bytes {
	return Bytes(b.BytesPerSecond() * d.Seconds())
}

// Utilisation is a CPU utilisation expressed in units of one virtual CPU:
// 1.0 means one fully busy vCPU, 4.0 means four. The paper's CPU(h,t) and
// CPU(v,t) terms use this convention (a host with 32 threads saturates at
// 32.0).
type Utilisation float64

// Clamp bounds u into [0, max].
func (u Utilisation) Clamp(max Utilisation) Utilisation {
	if u < 0 {
		return 0
	}
	if u > max {
		return max
	}
	return u
}

// Fraction is a dimensionless value in [0,1], e.g. the dirtying ratio
// DR(v,t) of Eq. 1.
type Fraction float64

// Clamp bounds f into [0,1].
func (f Fraction) Clamp() Fraction {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Percent renders f as a percentage string, e.g. "95%".
func (f Fraction) Percent() string { return fmt.Sprintf("%.0f%%", float64(f)*100) }

// EnergyOver returns the energy of constant power p held for d.
func EnergyOver(p Watts, d time.Duration) Joules {
	return Joules(float64(p) * d.Seconds())
}

// String implementations so traces and reports print naturally.

func (w Watts) String() string  { return fmt.Sprintf("%.1f W", float64(w)) }
func (j Joules) String() string { return fmt.Sprintf("%.1f J", float64(j)) }

func (b Bytes) String() string {
	switch {
	case b >= GiB:
		return fmt.Sprintf("%.2f GiB", float64(b)/float64(GiB))
	case b >= MiB:
		return fmt.Sprintf("%.2f MiB", float64(b)/float64(MiB))
	case b >= KiB:
		return fmt.Sprintf("%.2f KiB", float64(b)/float64(KiB))
	default:
		return fmt.Sprintf("%d B", int64(b))
	}
}

func (b BitsPerSecond) String() string {
	switch {
	case b >= Gbps:
		return fmt.Sprintf("%.2f Gbit/s", float64(b)/float64(Gbps))
	case b >= Mbps:
		return fmt.Sprintf("%.2f Mbit/s", float64(b)/float64(Mbps))
	default:
		return fmt.Sprintf("%.0f bit/s", float64(b))
	}
}
