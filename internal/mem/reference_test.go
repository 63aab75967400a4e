package mem

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/units"
)

// The reference dirtiers below are a plain per-draw transcription of the
// sampling rule: one generator method call per draw, the state and the
// dirty count stored through pointers, a branch on the old bit. The
// production step loops must stay bit-identical to them.

type refPRNG struct{ s uint64 }

func newRefPRNG(seed int64) refPRNG {
	r := refPRNG{s: uint64(seed)}
	r.next()
	return r
}

func (r *refPRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *refPRNG) uint64n(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

func (r *refPRNG) float64v() float64 { return float64(r.next()>>11) * 0x1.0p-53 }

// refDirty marks page i dirty in im, counting it if it was clean.
func refDirty(im *Image, i units.Pages) {
	w, m := i>>6, uint64(1)<<uint(i&63)
	if im.dirty[w]&m == 0 {
		im.dirty[w] |= m
		im.ndirt++
	}
}

type refUniform struct {
	rate  float64
	ws    units.Fraction
	rng   refPRNG
	carry float64
}

func (u *refUniform) Step(im *Image, dt float64) int64 {
	if dt <= 0 || u.rate <= 0 {
		return 0
	}
	span := units.Pages(float64(im.TotalPages()) * float64(u.ws))
	if span <= 0 {
		return 0
	}
	u.carry += u.rate * dt
	n := int64(u.carry)
	u.carry -= float64(n)
	for i := int64(0); i < n; i++ {
		refDirty(im, units.Pages(u.rng.uint64n(uint64(span))))
	}
	return n
}

type refHotCold struct {
	rate    float64
	hotFrac units.Fraction
	hotProb float64
	rng     refPRNG
	carry   float64
}

func (h *refHotCold) Step(im *Image, dt float64) int64 {
	if dt <= 0 || h.rate <= 0 {
		return 0
	}
	total := im.TotalPages()
	hot := units.Pages(float64(total) * float64(h.hotFrac))
	if hot <= 0 {
		hot = 1
	}
	h.carry += h.rate * dt
	n := int64(h.carry)
	h.carry -= float64(n)
	for i := int64(0); i < n; i++ {
		if h.rng.float64v() < h.hotProb {
			refDirty(im, units.Pages(h.rng.uint64n(uint64(hot))))
		} else {
			refDirty(im, units.Pages(h.rng.uint64n(uint64(total))))
		}
	}
	return n
}

// TestDirtierMatchesReference drives each production dirtier and its
// reference side by side over randomized image sizes, rates, seeds and
// step lengths (with fractional carry and non-positive steps), cleaning
// single pages and whole images in between. After every step the issued
// count, the dirty-page count and every bitmap word must agree, and at
// the end so must the next draw of the generators. Every trial runs once
// with the uniform kernel on and once with the Go loop alone.
func TestDirtierMatchesReference(t *testing.T) {
	kernelModes(t, dirtiersMatchReference)
}

func dirtiersMatchReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(20151))
	hotProbs := []float64{0, 0.37, 1}
	for trial := 0; trial < 240; trial++ {
		pages := units.Pages(1 + rnd.Intn(3000))
		if trial%4 == 0 {
			pages = units.Pages(60_000 + rnd.Intn(10_000))
		}
		rate := rnd.Float64() * 40_000
		if trial%11 == 0 {
			rate = 0
		}
		frac := units.Fraction(rnd.Float64())
		if trial%9 == 0 {
			frac = 0
		}
		seed := rnd.Int63() - rnd.Int63()

		var d Dirtier
		var ref interface {
			Step(*Image, float64) int64
		}
		var next func() (got, want uint64)
		if trial%2 == 0 {
			u := NewUniformDirtier(rate, frac, seed)
			r := &refUniform{rate: rate, ws: frac, rng: newRefPRNG(seed)}
			d, ref = u, r
			next = func() (uint64, uint64) { return mix64(u.rng + weyl), r.rng.next() }
		} else {
			prob := hotProbs[(trial/2)%len(hotProbs)]
			h := NewHotColdDirtier(rate, frac, prob, seed)
			r := &refHotCold{rate: rate, hotFrac: frac, hotProb: prob, rng: newRefPRNG(seed)}
			d, ref = h, r
			next = func() (uint64, uint64) { return mix64(h.rng + weyl), r.rng.next() }
		}

		got, want := newImg(t, pages.Bytes()), newImg(t, pages.Bytes())
		for step := 0; step < 40; step++ {
			dt := rnd.Float64() * 0.3
			switch rnd.Intn(10) {
			case 0:
				dt = 0
			case 1:
				dt = -0.1
			case 2:
				dt = 0.1
			}
			gn, wn := d.Step(got, dt), ref.Step(want, dt)
			if gn != wn || got.DirtyPages() != want.DirtyPages() {
				t.Fatalf("trial %d step %d: n = %d, dirty = %d; reference n = %d, dirty = %d",
					trial, step, gn, got.DirtyPages(), wn, want.DirtyPages())
			}
			for w := range want.dirty {
				if got.dirty[w] != want.dirty[w] {
					t.Fatalf("trial %d step %d: bitmap word %d = %#x, reference %#x",
						trial, step, w, got.dirty[w], want.dirty[w])
				}
			}
			switch rnd.Intn(8) {
			case 0:
				got.CleanAll()
				want.CleanAll()
			case 1, 2:
				for k := rnd.Intn(20); k >= 0; k-- {
					p := units.Pages(rnd.Int63n(int64(pages)))
					got.Clean(p)
					want.Clean(p)
				}
			}
		}
		if g, w := next(); g != w {
			t.Fatalf("trial %d: next draw = %#x, reference %#x", trial, g, w)
		}
	}
}
