package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestPagesOf(t *testing.T) {
	tests := []struct {
		name string
		in   Bytes
		want Pages
	}{
		{"zero", 0, 0},
		{"negative", -5, 0},
		{"one byte rounds up", 1, 1},
		{"exact page", PageSize, 1},
		{"page plus one", PageSize + 1, 2},
		{"4GiB VM", 4 * GiB, 1 << 20},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := PagesOf(tt.in); got != tt.want {
				t.Errorf("PagesOf(%d) = %d, want %d", tt.in, got, tt.want)
			}
		})
	}
}

func TestPagesRoundTrip(t *testing.T) {
	// For any non-negative byte count, PagesOf(n).Bytes() >= n and the
	// overshoot is less than one page.
	f := func(n int64) bool {
		if n < 0 {
			n = -n
		}
		b := Bytes(n % (1 << 40))
		back := PagesOf(b).Bytes()
		return back >= b && back-b < PageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBandwidthBytesIn(t *testing.T) {
	if got := Gbps.BytesIn(time.Second); got != 125_000_000 {
		t.Errorf("1 Gbit/s over 1 s = %d bytes, want 125000000", got)
	}
	if got := (100 * Mbps).BytesIn(2 * time.Second); got != 25_000_000 {
		t.Errorf("100 Mbit/s over 2 s = %d bytes, want 25000000", got)
	}
}

func TestUtilisationClamp(t *testing.T) {
	if got := Utilisation(-1).Clamp(32); got != 0 {
		t.Errorf("Clamp(-1) = %v, want 0", got)
	}
	if got := Utilisation(40).Clamp(32); got != 32 {
		t.Errorf("Clamp(40) = %v, want 32", got)
	}
	if got := Utilisation(7).Clamp(32); got != 7 {
		t.Errorf("Clamp(7) = %v, want 7", got)
	}
}

func TestFractionClamp(t *testing.T) {
	f := func(x float64) bool {
		c := Fraction(x).Clamp()
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergyOver(t *testing.T) {
	e := EnergyOver(500, 2*time.Second)
	if math.Abs(float64(e)-1000) > 1e-9 {
		t.Errorf("500 W over 2 s = %v, want 1000 J", e)
	}
	if e.KiloJoules() != 1.0 {
		t.Errorf("KiloJoules = %v, want 1", e.KiloJoules())
	}
}

func TestStrings(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{Watts(712.5).String(), "712.5 W"},
		{Joules(42).String(), "42.0 J"},
		{(4 * GiB).String(), "4.00 GiB"},
		{(512 * MiB).String(), "512.00 MiB"},
		{(3 * KiB).String(), "3.00 KiB"},
		{Bytes(100).String(), "100 B"},
		{Gbps.String(), "1.00 Gbit/s"},
		{(250 * Mbps).String(), "250.00 Mbit/s"},
		{BitsPerSecond(100).String(), "100 bit/s"},
		{Fraction(0.95).Percent(), "95%"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("got %q, want %q", tt.got, tt.want)
		}
	}
}
