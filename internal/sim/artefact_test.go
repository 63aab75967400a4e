package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/units"
)

// seal frames a payload as an artefact with a correct payload length
// and SHA-256, so only the decoder's payload checks can reject it.
func seal(payload []byte) []byte {
	out := append([]byte(artefactMagic), make([]byte, 12)...)
	binary.LittleEndian.PutUint32(out[8:12], artefactVersion)
	binary.LittleEndian.PutUint64(out[12:20], uint64(len(payload)))
	out = append(out, payload...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// decodeModes are the decoder's two modes, which must agree on every
// verdict: the full decode, and the summary-only decode that SummaryCtx
// runs.
var decodeModes = []struct {
	name   string
	traces bool
}{{"full", true}, {"summary", false}}

// splice returns payload with its one occurrence of old replaced by new.
func splice(t *testing.T, payload, old, new []byte) []byte {
	t.Helper()
	i := bytes.Index(payload, old)
	if i < 0 || bytes.Index(payload[i+1:], old) >= 0 {
		t.Fatal("trace section not found exactly once in the payload")
	}
	return append(append(append([]byte(nil), payload[:i]...), new...), payload[i+len(old):]...)
}

// TestArtefactRejectsNonCanonical pins the canonical form: for each rule
// the decoder enforces, a variant of a real artefact that breaks only
// that rule, re-sealed with a correct length and checksum, is rejected
// as malformed in both decode modes. Each variant is built so that
// without its rule it would decode, to a result whose canonical encoding
// differs from its bytes.
func TestArtefactRejectsNonCanonical(t *testing.T) {
	keyBytes, hash, res := liveMemArtefact(t)
	good := encodeArtefact(keyBytes, hash, res)
	payload := good[artefactHeaderLen : len(good)-artefactSumLen]
	if !bytes.Equal(seal(payload), good) {
		t.Fatal("seal does not reproduce the encoder's framing")
	}

	var pw artefactWriter
	pw.power(res.Source)
	power := pw.b
	var fw artefactWriter
	fw.features(res.SourceFeatures)
	feats := fw.b
	var tw artefactWriter
	tw.features(res.TargetFeatures)
	targetFeats := tw.b
	host := res.Source.Host
	s0 := res.Source.Samples[0]

	// powerTrace writes a Source power section from an explicit time-axis
	// flag, optional grid, count and samples.
	powerTrace := func(flag byte, grid []int64, count int, samples func(w *artefactWriter)) []byte {
		var w artefactWriter
		w.str(host)
		w.u8(flag)
		for _, v := range grid {
			w.i64(v)
		}
		w.u64(uint64(count))
		if samples != nil {
			samples(&w)
		}
		return w.b
	}

	// The Source feature trace lies on its grid; its samples start after
	// the host, the flag, t0, step and the count.
	first := 8 + len(res.SourceFeatures.Host) + 1 + 16 + 8
	if feats[first-25] != 1 {
		t.Fatal("the source feature trace is not stored on a grid")
	}
	// sampleAt returns the offset of feature sample i in feats.
	sampleAt := func(i int) int {
		off := first
		for ; i > 0; i-- {
			off += 1 + 8*bits.OnesCount8(feats[off])
		}
		return off
	}

	variants := []struct {
		name    string
		old     []byte
		variant func() []byte
	}{
		{"flag-not-0-or-1", power, func() []byte {
			return powerTrace(2, nil, 0, nil)
		}},
		{"grid-on-empty-trace", power, func() []byte {
			return powerTrace(1, []int64{0, 0}, 0, nil)
		}},
		{"step-on-one-sample-trace", power, func() []byte {
			return powerTrace(1, []int64{int64(s0.At), int64(500 * time.Millisecond)}, 1, func(w *artefactWriter) {
				w.f64(float64(s0.Power))
			})
		}},
		{"spelled-out-timestamps-on-grid", power, func() []byte {
			return powerTrace(0, nil, len(res.Source.Samples), func(w *artefactWriter) {
				for _, s := range res.Source.Samples {
					w.i64(int64(s.At))
					w.f64(float64(s.Power))
				}
			})
		}},
		{"spelled-out-one-sample", power, func() []byte {
			return powerTrace(0, nil, 1, func(w *artefactWriter) {
				w.i64(int64(s0.At))
				w.f64(float64(s0.Power))
			})
		}},
		{"mask-bit-above-3", feats, func() []byte {
			v := append([]byte(nil), feats...)
			v[first] |= 0x10
			return v
		}},
		{"masked-field-unchanged", feats, func() []byte {
			// The first sample from the second on whose HostCPU repeats:
			// mark it changed and store the repeated bits.
			for i := 1; i < len(res.SourceFeatures.Samples); i++ {
				off := sampleAt(i)
				if feats[off]&1 != 0 {
					continue
				}
				prev := featureBits(&res.SourceFeatures.Samples[i-1])
				v := append([]byte(nil), feats[:off]...)
				v = append(v, feats[off]|1)
				v = binary.LittleEndian.AppendUint64(v, prev[0])
				return append(v, feats[off+1:]...)
			}
			t.Fatal("no sample repeats its HostCPU")
			return nil
		}},
		{"trailing-payload-byte", targetFeats, func() []byte {
			// The Target feature trace ends the payload.
			return append(append([]byte(nil), targetFeats...), 0)
		}},
	}
	for _, tc := range variants {
		t.Run(tc.name, func(t *testing.T) {
			data := seal(splice(t, payload, tc.old, tc.variant()))
			for _, mode := range decodeModes {
				t.Run(mode.name, func(t *testing.T) {
					_, err := decodeArtefact(data, keyBytes, hash, mode.traces)
					var aerr *artefactError
					switch {
					case err == nil:
						t.Fatal("accepted a non-canonical encoding")
					case !errors.As(err, &aerr):
						t.Fatalf("error is not an *artefactError: %v", err)
					case aerr.reason != reasonMalformed:
						t.Fatalf("rejected as %q, want %q: %v", aerr.reason, reasonMalformed, err)
					}
				})
			}
		})
	}
}

// summaryWords flattens the summary fields an artefact stores — what a
// summary-only decode returns — into words, each float as its IEEE-754
// bits, so two results compare exactly: reflect.DeepEqual calls a NaN
// unequal to itself and +0 equal to −0.
func summaryWords(r *RunResult) []uint64 {
	f := func(v float64) uint64 { return math.Float64bits(v) }
	return []uint64{
		uint64(r.Bounds.MS), uint64(r.Bounds.TS), uint64(r.Bounds.TE), uint64(r.Bounds.ME),
		f(float64(r.SourceEnergy.Initiation)), f(float64(r.SourceEnergy.Transfer)), f(float64(r.SourceEnergy.Activation)),
		f(float64(r.TargetEnergy.Initiation)), f(float64(r.TargetEnergy.Transfer)), f(float64(r.TargetEnergy.Activation)),
		uint64(r.BytesSent), uint64(r.Rounds), uint64(r.Downtime),
	}
}

// resultWords extends summaryWords with every trace sample.
func resultWords(r *RunResult) []uint64 {
	f := func(v float64) uint64 { return math.Float64bits(v) }
	w := summaryWords(r)
	for _, p := range []*trace.PowerTrace{r.Source, r.Target} {
		w = append(w, uint64(len(p.Samples)))
		for _, s := range p.Samples {
			w = append(w, uint64(s.At), f(float64(s.Power)))
		}
	}
	for _, ft := range []*trace.FeatureTrace{r.SourceFeatures, r.TargetFeatures} {
		w = append(w, uint64(len(ft.Samples)))
		for i := range ft.Samples {
			b := featureBits(&ft.Samples[i])
			w = append(w, uint64(ft.Samples[i].At), b[0], b[1], b[2], b[3])
		}
	}
	return w
}

// TestArtefactRoundTripEdgeCases round-trips traces a real run does not
// produce — empty and one-sample traces, a jittered timestamp, a field
// that changes on every sample, signed zeros, infinities, a NaN payload
// and a subnormal — and demands bit-exact results and canonical bytes,
// and the same summary, with no traces, from a summary-only decode.
func TestArtefactRoundTripEdgeCases(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64 * 3
	specials := []float64{0, negZero, math.Inf(1), math.Inf(-1), nan, nan, sub, negZero, 0}
	const step = 100 * time.Millisecond

	power := func(n int, v func(i int) float64) []trace.Sample {
		s := make([]trace.Sample, n)
		for i := range s {
			s[i] = trace.Sample{At: time.Duration(i) * 5 * step, Power: units.Watts(v(i))}
		}
		return s
	}
	feats := func(n int, v func(i, j int) float64) []trace.FeatureSample {
		s := make([]trace.FeatureSample, n)
		for i := range s {
			s[i] = trace.FeatureSample{
				At:         time.Duration(i) * step,
				HostCPU:    units.Utilisation(v(i, 0)),
				VMCPU:      units.Utilisation(v(i, 1)),
				Bandwidth:  units.BitsPerSecond(v(i, 2)),
				DirtyRatio: units.Fraction(v(i, 3)),
			}
		}
		return s
	}
	jitteredPower := power(9, func(i int) float64 { return 100 + float64(i%3) })
	jitteredPower[4].At++
	jitteredFeats := feats(9, func(i, j int) float64 { return float64(i / 4 * j) })
	jitteredFeats[8].At--

	cases := []struct {
		name  string
		power []trace.Sample
		feats []trace.FeatureSample
	}{
		{"empty", nil, nil},
		{"one-sample", power(1, func(int) float64 { return 97.5 }), feats(1, func(_, j int) float64 { return float64(j) })},
		{"one-sample-zero", power(1, func(int) float64 { return 0 }), feats(1, func(int, int) float64 { return 0 })},
		{"negative-start", []trace.Sample{{At: -step, Power: 1}, {At: 0, Power: 2}}, nil},
		{"jittered", jitteredPower, jitteredFeats},
		{"field-changes-every-sample", nil, feats(12, func(i, j int) float64 {
			if j == 3 {
				return float64(i) / 16
			}
			return 1
		})},
		{"special-values", power(len(specials), func(i int) float64 { return specials[i] }),
			feats(len(specials), func(i, j int) float64 { return specials[(i+j)%len(specials)] })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := &RunResult{
				Source:         &trace.PowerTrace{Host: "src", Samples: tc.power},
				Target:         &trace.PowerTrace{Host: "dst", Samples: tc.power},
				SourceFeatures: &trace.FeatureTrace{Host: "src", Samples: tc.feats},
				TargetFeatures: &trace.FeatureTrace{Host: "dst", Samples: tc.feats},
				Bounds:         trace.Boundaries{MS: step, TS: 2 * step, TE: 3 * step, ME: 4 * step},
				SourceEnergy:   trace.PhaseEnergy{Initiation: units.Joules(negZero), Transfer: units.Joules(nan), Activation: units.Joules(sub)},
				TargetEnergy:   trace.PhaseEnergy{Initiation: units.Joules(math.Inf(-1)), Transfer: 1, Activation: 0},
				BytesSent:      1 << 40,
				Rounds:         -1,
				Downtime:       -step,
			}
			keyBytes := []byte(tc.name)
			hash := sha256.Sum256(keyBytes)
			data := encodeArtefact(keyBytes, hash, res)
			back, err := decodeArtefact(data, keyBytes, hash, true)
			if err != nil {
				t.Fatal(err)
			}
			if back.Source.Host != "src" || back.Target.Host != "dst" || back.SourceFeatures.Host != "src" || back.TargetFeatures.Host != "dst" {
				t.Error("host labels changed")
			}
			want, got := resultWords(res), resultWords(back)
			if len(got) != len(want) {
				t.Fatalf("decoded %d words, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("word %d: decoded %#x, want %#x", i, got[i], want[i])
				}
			}
			if !bytes.Equal(encodeArtefact(keyBytes, hash, back), data) {
				t.Error("re-encoding the decoded result changed bytes")
			}
			sum, err := decodeArtefact(data, keyBytes, hash, false)
			if err != nil {
				t.Fatalf("summary-only decode rejects what the full decode accepts: %v", err)
			}
			if !sameRun(sum, res, false) {
				t.Error("the summary-only decode is not the result's summary without traces")
			}
		})
	}
}
