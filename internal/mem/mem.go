package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/units"
)

// Image is the page-granular memory image of one VM.
type Image struct {
	total units.Pages
	dirty []uint64 // bitmap, one bit per page
	ndirt units.Pages
}

// NewImage allocates a clean memory image of the given size. It errors on
// non-positive sizes.
func NewImage(size units.Bytes) (*Image, error) {
	p := units.PagesOf(size)
	if p <= 0 {
		return nil, fmt.Errorf("mem: image size %v yields no pages", size)
	}
	return &Image{total: p, dirty: make([]uint64, (p+63)/64)}, nil
}

// TotalPages returns MEM(v), the VM memory size in pages.
func (im *Image) TotalPages() units.Pages { return im.total }

// DirtyPages returns DIRTYPAGES(v,t), the current dirty page count.
func (im *Image) DirtyPages() units.Pages { return im.ndirt }

// DirtyRatio returns DR(v,t) = DIRTYPAGES(v,t) / MEM(v) (Eq. 1).
func (im *Image) DirtyRatio() units.Fraction {
	return units.Fraction(float64(im.ndirt) / float64(im.total))
}

// Dirty marks page i dirty; re-dirtying an already dirty page is a no-op
// (the bitmap is idempotent, exactly like Xen's log-dirty mode).
func (im *Image) Dirty(i units.Pages) error {
	if i < 0 || i >= im.total {
		return fmt.Errorf("mem: page %d out of range [0, %d)", i, im.total)
	}
	im.dirtyFast(i)
	return nil
}

// dirtyFast is Dirty without the range check: the inlinable twin the
// dirtier hot loops use for indices they guarantee in range.
func (im *Image) dirtyFast(i units.Pages) {
	w, m := i>>6, uint64(1)<<uint(i&63)
	if im.dirty[w]&m == 0 {
		im.dirty[w] |= m
		im.ndirt++
	}
}

// IsDirty reports whether page i is dirty.
func (im *Image) IsDirty(i units.Pages) bool {
	if i < 0 || i >= im.total {
		return false
	}
	return im.dirty[i/64]&(1<<uint(i%64)) != 0
}

// Clean clears page i's dirty bit (it has been copied to the target).
func (im *Image) Clean(i units.Pages) {
	if i < 0 || i >= im.total {
		return
	}
	w, b := i/64, uint(i%64)
	if im.dirty[w]&(1<<b) != 0 {
		im.dirty[w] &^= 1 << b
		im.ndirt--
	}
}

// CleanAll clears the whole bitmap, as Xen does at the start of each
// pre-copy round after snapshotting the set to send.
func (im *Image) CleanAll() {
	for i := range im.dirty {
		im.dirty[i] = 0
	}
	im.ndirt = 0
}

// Snapshot returns the indices of all dirty pages in ascending order.
func (im *Image) Snapshot() []units.Pages {
	out := make([]units.Pages, 0, im.ndirt)
	for w, word := range im.dirty {
		if word == 0 {
			continue
		}
		for b := 0; b < 64; b++ {
			if word&(1<<uint(b)) != 0 {
				p := units.Pages(w*64 + b)
				if p < im.total {
					out = append(out, p)
				}
			}
		}
	}
	return out
}

// Dirtier is a workload's page-dirtying behaviour: given elapsed wall time
// dt (seconds) it returns how many page-write events to issue and where.
type Dirtier interface {
	// Step issues page writes for a dt-second interval against the image.
	// It returns the number of page-write events issued (counting repeats
	// on already-dirty pages, i.e. memory traffic, not unique pages).
	Step(im *Image, dtSeconds float64) int64
	// Rate returns the nominal page-write rate in pages/second, used to
	// size memory-traffic power.
	Rate() float64
}

// UniformDirtier writes pages uniformly at random over a working set that
// occupies the first WorkingSetFrac of the image — the behaviour of the
// paper's pagedirtier tool, which "continuously writes in memory pages in
// random order" over its 3.8 GB allocation inside the 4 GB VM.
type UniformDirtier struct {
	// PagesPerSecond is the write-event rate.
	PagesPerSecond float64
	// WorkingSetFrac is the fraction of the image the writes span
	// (pagedirtier's 3.8/4.0 ≈ 0.95).
	WorkingSetFrac units.Fraction
	rng            prng
	carry          float64
}

// NewUniformDirtier builds a seeded uniform dirtier.
func NewUniformDirtier(pagesPerSecond float64, workingSet units.Fraction, seed int64) *UniformDirtier {
	return &UniformDirtier{
		PagesPerSecond: pagesPerSecond,
		WorkingSetFrac: workingSet.Clamp(),
		rng:            newPRNG(seed),
	}
}

// prng is the dirtiers' random source: splitmix64, chosen over math/rand
// because the dirtiers draw tens of thousands of page indices per 100 ms
// simulation step — the hottest loop of the whole kernel — and splitmix64
// needs no interface dispatch, no rejection loop and no division while
// passing BigCrush. Same seed, same sequence: the determinism guarantees
// of the campaign layers are unaffected.
type prng struct{ s uint64 }

func newPRNG(seed int64) prng {
	r := prng{s: uint64(seed)}
	r.next() // decorrelate small adjacent seeds before first use
	return r
}

// next returns the next 64 uniformly random bits.
func (r *prng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uint64n returns a uniform value in [0, n) by multiply-shift reduction
// (Lemire); the bias of skipping the rejection step is below 2^-40 for
// any page span a VM image can have.
func (r *prng) uint64n(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// float64v returns a uniform value in [0, 1) with 53 random bits.
func (r *prng) float64v() float64 {
	return float64(r.next()>>11) * 0x1.0p-53
}

// Step implements Dirtier.
func (u *UniformDirtier) Step(im *Image, dtSeconds float64) int64 {
	if dtSeconds <= 0 || u.PagesPerSecond <= 0 {
		return 0
	}
	span := units.Pages(float64(im.TotalPages()) * float64(u.WorkingSetFrac))
	if span <= 0 {
		return 0
	}
	u.carry += u.PagesPerSecond * dtSeconds
	n := int64(u.carry)
	u.carry -= float64(n)
	span64 := uint64(span)
	for i := int64(0); i < n; i++ {
		// The index is bounded by span ≤ total.
		im.dirtyFast(units.Pages(u.rng.uint64n(span64)))
	}
	return n
}

// Rate implements Dirtier.
func (u *UniformDirtier) Rate() float64 { return u.PagesPerSecond }

// HotColdDirtier concentrates writes on a small hot set with a given
// probability, a closer match for real applications (databases, JVM heaps)
// than uniform writes. Used by the extension experiments.
type HotColdDirtier struct {
	PagesPerSecond float64
	// HotFrac is the fraction of the image forming the hot set.
	HotFrac units.Fraction
	// HotProb is the probability a write lands in the hot set.
	HotProb float64
	rng     prng
	carry   float64
}

// NewHotColdDirtier builds a seeded hot/cold dirtier.
func NewHotColdDirtier(pagesPerSecond float64, hotFrac units.Fraction, hotProb float64, seed int64) *HotColdDirtier {
	if hotProb < 0 {
		hotProb = 0
	}
	if hotProb > 1 {
		hotProb = 1
	}
	return &HotColdDirtier{
		PagesPerSecond: pagesPerSecond,
		HotFrac:        hotFrac.Clamp(),
		HotProb:        hotProb,
		rng:            newPRNG(seed),
	}
}

// Step implements Dirtier.
func (h *HotColdDirtier) Step(im *Image, dtSeconds float64) int64 {
	if dtSeconds <= 0 || h.PagesPerSecond <= 0 {
		return 0
	}
	total := im.TotalPages()
	hot := units.Pages(float64(total) * float64(h.HotFrac))
	if hot <= 0 {
		hot = 1
	}
	h.carry += h.PagesPerSecond * dtSeconds
	n := int64(h.carry)
	h.carry -= float64(n)
	hot64, total64 := uint64(hot), uint64(total)
	for i := int64(0); i < n; i++ {
		var p units.Pages
		if h.rng.float64v() < h.HotProb {
			p = units.Pages(h.rng.uint64n(hot64))
		} else {
			p = units.Pages(h.rng.uint64n(total64))
		}
		im.dirtyFast(p)
	}
	return n
}

// Rate implements Dirtier.
func (h *HotColdDirtier) Rate() float64 { return h.PagesPerSecond }

// NoDirtier is the dirtying behaviour of an idle or CPU-only workload:
// nothing gets written.
type NoDirtier struct{}

// Step implements Dirtier.
func (NoDirtier) Step(*Image, float64) int64 { return 0 }

// Rate implements Dirtier.
func (NoDirtier) Rate() float64 { return 0 }
