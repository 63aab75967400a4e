package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestCampaignDeterministicAcrossWorkers is the parallel engine's
// regression guarantee: the same campaign run strictly sequentially
// (Workers=1) and with a wide worker pool (Workers=8) must produce
// bit-identical datasets — same records, same order, same observation
// values — and therefore bit-identical fitted coefficients.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign integration test")
	}
	cfg := Config{
		Pair:        hw.PairM,
		MinRuns:     2,
		VarianceTol: 0.9,
		Seed:        41,
		LoadLevels:  []int{0, 8},
		DirtyLevels: []units.Fraction{0.05, 0.95},
	}
	families := []Family{CPULoadSource, MemLoadVM}

	seq := cfg
	seq.Workers = 1
	par := cfg
	par.Workers = 8

	campSeq, err := RunCampaign(seq, families...)
	if err != nil {
		t.Fatal(err)
	}
	campPar, err := RunCampaign(par, families...)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := campPar.Dataset.Len(), campSeq.Dataset.Len(); got != want {
		t.Fatalf("parallel dataset has %d rows, sequential %d", got, want)
	}
	for i := range campSeq.Dataset.Runs {
		s, p := campSeq.Dataset.Runs[i], campPar.Dataset.Runs[i]
		if s.RunID != p.RunID {
			t.Fatalf("row %d: RunID %q (seq) vs %q (par) — row order depends on workers", i, s.RunID, p.RunID)
		}
		if !reflect.DeepEqual(s, p) {
			t.Fatalf("row %d (%s): records differ between Workers=1 and Workers=8", i, s.RunID)
		}
	}

	// Same point structure and same per-point run counts (the convergence
	// rule must truncate speculative runs identically).
	if len(campSeq.Results) != len(campPar.Results) {
		t.Fatalf("point counts differ: %d vs %d", len(campSeq.Results), len(campPar.Results))
	}
	for i := range campSeq.Results {
		if len(campSeq.Results[i].Runs) != len(campPar.Results[i].Runs) {
			t.Errorf("point %d: %d runs (seq) vs %d (par)",
				i, len(campSeq.Results[i].Runs), len(campPar.Results[i].Runs))
		}
	}

	// The fitted models must come out identical in every coefficient.
	for _, kind := range []migration.Kind{migration.NonLive, migration.Live} {
		mSeq, err := core.Train(campSeq.Dataset, kind)
		if err != nil {
			t.Fatal(err)
		}
		mPar, err := core.Train(campPar.Dataset, kind)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mSeq.Coeffs, mPar.Coeffs) {
			t.Errorf("%v PhaseCoeffs differ between Workers=1 and Workers=8:\nseq: %+v\npar: %+v",
				kind, mSeq.Coeffs, mPar.Coeffs)
		}
	}
}

// TestCampaignDeterministicCacheOnOff is the run cache's regression
// guarantee, the cache-flavoured sibling of the workers test above: the
// same campaign with the cache off and with a shared cache (sequentially
// and with a wide pool, so singleflight paths are exercised) must produce
// bit-identical datasets row for row.
func TestCampaignDeterministicCacheOnOff(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign integration test")
	}
	cfg := Config{
		Pair:        hw.PairM,
		MinRuns:     2,
		VarianceTol: 0.9,
		Seed:        43,
		LoadLevels:  []int{0, 8},
		DirtyLevels: []units.Fraction{0.05, 0.95},
	}
	// Both CPULOAD families: their zero-load points are physically
	// identical across families, so the cached run must actually hit.
	families := []Family{CPULoadSource, CPULoadTarget}

	uncached := cfg
	uncached.Workers = 1
	campOff, err := RunCampaign(uncached, families...)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		cached := cfg
		cached.Workers = workers
		cached.Cache = sim.NewCache(0)
		campOn, err := RunCampaign(cached, families...)
		if err != nil {
			t.Fatal(err)
		}
		if st := cached.Cache.Snapshot(); st.Hits == 0 {
			t.Errorf("workers=%d: overlapping families produced no cache hits (%d misses)", workers, st.Misses)
		}
		if got, want := campOn.Dataset.Len(), campOff.Dataset.Len(); got != want {
			t.Fatalf("workers=%d: cached dataset has %d rows, uncached %d", workers, got, want)
		}
		for i := range campOff.Dataset.Runs {
			off, on := campOff.Dataset.Runs[i], campOn.Dataset.Runs[i]
			if !reflect.DeepEqual(off, on) {
				t.Fatalf("workers=%d row %d (%s): records differ between cache off and on", workers, i, off.RunID)
			}
		}
	}
}
