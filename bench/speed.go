package main

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/internal/benchjson"
)

// The shared virtual machines this benchmark runs on change speed by a
// third or more within a minute as their neighbours come and go, and every
// workload slows with them: over ten runs of a workload the quartile
// spread of its raw median times reached 0.3. A round therefore also
// times a fixed job, the probe, before each of its timed operations, and
// a run reports each time scaled to the speed at which the probe takes
// refProbeMs: the time measured, times refProbeMs over the probe's median
// in the run.
//
// The probe is the benchmark's own code (hashing, small allocations into
// a map and sorting, floating point), so no change to the repository can
// speed it up, and a change's effect passes through the scaling
// unchanged. A run's record keeps the raw samples and the probe's.
const refProbeMs = 10.0

// probeInput is the probe's fixed input: a buffer to hash and keys to
// sort. The probe only reads it.
var probeInput = func() (in struct {
	buf  []byte
	keys []float64
}) {
	rng := rand.New(rand.NewSource(1))
	in.buf = make([]byte, 256<<10)
	in.keys = make([]float64, 40000)
	for i := range in.keys {
		in.keys[i] = rng.Float64()
	}
	return in
}()

// runProbe times one probe, in milliseconds: the mean of the job's time
// alone and its mean time on each of GOMAXPROCS goroutines at once. The
// workloads run on one goroutine with the collector on the other core, or
// on every core at once, and the cores of a shared machine slow down
// apart, so the probe samples both one core's speed and all of them. Over
// ten runs of each workload on a 2-core machine, scaling by the mean cut
// the quartile spread of the median times from 0.09–0.25 to 0.02–0.16,
// and tracked the workloads more evenly than either part alone. A probe
// allocates a few megabytes, which the collection before the next timed
// pass reclaims.
func runProbe() float64 {
	alone := probeJob()
	n := runtime.GOMAXPROCS(0)
	times := make([]float64, n)
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			times[i] = probeJob()
		}(i)
	}
	wg.Wait()
	sum := 0.0
	for _, t := range times {
		sum += t
	}
	return (alone + sum/float64(n)) / 2
}

// probeJob runs the probe's job once and returns its time in
// milliseconds.
func probeJob() float64 {
	t0 := time.Now()
	acc := 0.0
	for i := 0; i < 6; i++ {
		sum := sha256.Sum256(probeInput.buf)
		acc += float64(sum[0])
	}
	m := make(map[int]*[4]float64)
	for i := 0; i < 25000; i++ {
		m[i*7] = &[4]float64{float64(i)}
	}
	s := append([]float64(nil), probeInput.keys...)
	sort.Float64s(s)
	for i := 0; i < 150000; i++ {
		acc += math.Exp(-float64(i%100)/50) * math.Sqrt(float64(i))
	}
	d := ms(time.Since(t0))
	probeSink.Store(math.Float64bits(acc + s[0] + float64(len(m))))
	return d
}

// probeSink keeps the probe's results alive, so the compiler cannot drop
// the work.
var probeSink atomic.Uint64

// speedScale is the factor that scales a run's times to the reference
// speed: refProbeMs over the median of the run's probe samples.
func speedScale(probeMs []float64) float64 {
	return refProbeMs / benchjson.Median(probeMs)
}
