package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/migration"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// The persistent run cache stores one completed RunResult per file as a
// versioned, self-describing, checksummed artefact. The format is a
// hand-rolled little-endian binary encoding rather than JSON or gob for
// two reasons: floats are stored as their exact IEEE-754 bit patterns, so
// a decoded result is bit-identical to the run that produced it (the
// property the whole cache stack is built on), and the decoder's failure
// surface is small enough to exhaust — every malformed input must come
// back as an *artefactError naming what broke, never a panic and never a
// silently wrong result (FuzzCacheArtefactDecode pins this).
//
// Layout (all integers little-endian):
//
//	offset 0   magic "wavm3run" (8 bytes)
//	offset 8   encoding version (uint32, artefactVersion)
//	offset 12  payload length (uint64)
//	offset 20  payload (see encodeArtefact)
//	tail       SHA-256 of every preceding byte (32 bytes)
//
// The payload opens with the artefact's own cache identity — the SHA-256
// key hash and the canonical key encoding it was computed from — so a
// file renamed onto the wrong key, or a hash collision, is detected by
// content, not trusted by name. The summary fields (bounds, energies,
// bytes sent, rounds, downtime) follow as fixed-width words, then the
// four traces, each as
//
//	host       string (uint64 length + bytes)
//	time axis  flag byte: 1 = grid, followed by t0 and step (int64 ns),
//	           so sample i is at t0 + i·step; 0 = every sample carries
//	           its own int64 timestamp
//	count      uint64
//	samples    power:   [timestamp] power bits
//	           feature: mask byte, [timestamp], then the bits of each
//	                    field whose mask bit is set
//
// Bit j of a feature sample's mask is set when field j (HostCPU, VMCPU,
// Bandwidth, DirtyRatio) differs in bits from the previous sample's;
// the first sample is compared against all-zero bits. The meters sample
// on fixed periods and three of the four fields rarely move, so a
// feature sample usually takes 1 or 9 bytes, against 40 for its
// timestamp and four fields in full.
//
// The encoding is canonical: every result has exactly one accepted
// byte form, and the decoder rejects every other form as malformed (a
// grid-capable trace spelled out, a grid on an empty trace, a step on a
// one-sample trace, an unknown flag or mask bit, a field marked changed
// that did not change). So an accepted artefact re-encodes to its own
// bytes by construction, not only because its checksum cannot be forged.

// artefactVersion is the on-disk encoding version. Bump it whenever the
// payload layout or the canonical key encoding changes. The version is
// part of every artefact's file name, so a bump renames the whole cache:
// old-version files are never read again (their keys cost one cold run,
// and the files can be deleted by hand), and no decoder for an old
// version is kept.
// Version 2 stores traces on their time grid with per-sample change
// masks.
const artefactVersion = 2

// artefactMagic opens every artefact file.
const artefactMagic = "wavm3run"

const (
	artefactHeaderLen = 8 + 4 + 8 // magic + version + payload length
	artefactSumLen    = sha256.Size
)

// Quarantine reasons, embedded in quarantined file names so a corrupt
// cache dir is diagnosable at a glance.
const (
	reasonTruncated = "truncated"
	reasonMagic     = "badmagic"
	reasonVersion   = "version"
	reasonChecksum  = "checksum"
	reasonKey       = "keymismatch"
	reasonMalformed = "malformed"
)

// artefactError is a decode failure: reason selects the quarantine
// label, msg carries the specifics.
type artefactError struct {
	reason string
	msg    string
}

func (e *artefactError) Error() string { return "sim: artefact " + e.reason + ": " + e.msg }

func artefactErrf(reason, format string, args ...any) *artefactError {
	return &artefactError{reason: reason, msg: fmt.Sprintf(format, args...)}
}

// encodeCacheKey renders a cache-key scenario (withDefaults applied, Name
// stripped — see cacheKey) into its canonical bytes. Every field that
// influences the physics is included in a fixed order; the SHA-256 of
// these bytes is the artefact's identity on disk. Changing this encoding
// is a format change: bump artefactVersion.
func encodeCacheKey(key Scenario) []byte {
	var w artefactWriter
	w.str(key.Pair)
	w.i64(int64(key.Kind))
	w.str(key.MigratingType)
	w.profile(key.MigratingProfile)
	w.i64(int64(key.SourceLoadVMs))
	w.i64(int64(key.TargetLoadVMs))
	w.profile(key.LoadProfile)
	w.i64(int64(key.PreMigration))
	w.i64(int64(key.PostMigration))
	w.i64(int64(key.Migration.Kind))
	w.i64(int64(key.Migration.InitiationTime))
	w.i64(int64(key.Migration.ActivationTime))
	w.i64(int64(key.Migration.MaxRounds))
	w.i64(int64(key.Migration.StopThreshold))
	w.f64(key.Migration.MaxDataFactor)
	w.i64(int64(key.Meter.Period))
	w.f64(key.Meter.Accuracy)
	w.f64(key.Meter.NoiseSigma)
	w.i64(key.Seed)
	return w.b
}

// artefactName is the store-facing file name of a key: the hex key hash
// plus the encoding version, so a format bump cannot even collide with
// old files, and an ls of the cache dir reads as a content-addressed
// index.
func artefactName(hash [sha256.Size]byte) string {
	return fmt.Sprintf("%s.v%d.run", hex.EncodeToString(hash[:]), artefactVersion)
}

// encodeArtefact renders one completed run as a self-contained artefact
// file: header, identity, result payload, checksum.
func encodeArtefact(keyBytes []byte, hash [sha256.Size]byte, res *RunResult) []byte {
	var p artefactWriter
	p.bytes(hash[:])
	p.str(string(keyBytes))
	p.i64(int64(res.Bounds.MS))
	p.i64(int64(res.Bounds.TS))
	p.i64(int64(res.Bounds.TE))
	p.i64(int64(res.Bounds.ME))
	p.energy(res.SourceEnergy)
	p.energy(res.TargetEnergy)
	p.i64(int64(res.BytesSent))
	p.i64(int64(res.Rounds))
	p.i64(int64(res.Downtime))
	p.power(res.Source)
	p.power(res.Target)
	p.features(res.SourceFeatures)
	p.features(res.TargetFeatures)

	out := make([]byte, 0, artefactHeaderLen+len(p.b)+artefactSumLen)
	out = append(out, artefactMagic...)
	out = binary.LittleEndian.AppendUint32(out, artefactVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(p.b)))
	out = append(out, p.b...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// decodeArtefact parses and verifies one artefact against the cache key
// the caller is looking up. Any deviation — truncation, bit-rot, a stale
// encoding version, a file that answers a different key — is an
// *artefactError; the caller treats every error as a miss and
// quarantines the file. A nil error guarantees the checksum held and the
// artefact's identity matches (keyBytes, hash) exactly.
//
// With traces false the decode is summary-only: it runs every check the
// full decode runs — framing, checksum, identity, every canonical-form
// rule and exact payload consumption — over the same walk of the
// payload, so both modes accept and reject the same bytes for the same
// reason, but it materialises no trace: the result carries the bounds,
// energies, bytes sent, rounds and downtime, and four nil traces.
func decodeArtefact(data []byte, keyBytes []byte, hash [sha256.Size]byte, traces bool) (*RunResult, error) {
	if len(data) < artefactHeaderLen+artefactSumLen {
		return nil, artefactErrf(reasonTruncated, "%d bytes, need at least %d", len(data), artefactHeaderLen+artefactSumLen)
	}
	if string(data[:8]) != artefactMagic {
		return nil, artefactErrf(reasonMagic, "leading bytes %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != artefactVersion {
		return nil, artefactErrf(reasonVersion, "encoding version %d, want %d", v, artefactVersion)
	}
	plen := binary.LittleEndian.Uint64(data[12:20])
	if plen != uint64(len(data)-artefactHeaderLen-artefactSumLen) {
		return nil, artefactErrf(reasonTruncated, "payload length %d, file holds %d", plen, len(data)-artefactHeaderLen-artefactSumLen)
	}
	body, sum := data[:len(data)-artefactSumLen], data[len(data)-artefactSumLen:]
	if got := sha256.Sum256(body); string(got[:]) != string(sum) {
		return nil, artefactErrf(reasonChecksum, "stored checksum does not match content")
	}

	r := artefactReader{b: body[artefactHeaderLen:], traces: traces}
	storedHash, err := r.take(artefactSumLen)
	if err != nil {
		return nil, err
	}
	if string(storedHash) != string(hash[:]) {
		return nil, artefactErrf(reasonKey, "artefact answers key %x, lookup wants %x", storedHash, hash[:])
	}
	storedKey, err := r.str()
	if err != nil {
		return nil, err
	}
	if string(storedKey) != string(keyBytes) {
		return nil, artefactErrf(reasonKey, "embedded scenario differs from the lookup's canonical encoding")
	}

	res := &RunResult{}
	for _, dst := range []*time.Duration{&res.Bounds.MS, &res.Bounds.TS, &res.Bounds.TE, &res.Bounds.ME} {
		v, err := r.i64()
		if err != nil {
			return nil, err
		}
		*dst = time.Duration(v)
	}
	if res.SourceEnergy, err = r.energy(); err != nil {
		return nil, err
	}
	if res.TargetEnergy, err = r.energy(); err != nil {
		return nil, err
	}
	sent, err := r.i64()
	if err != nil {
		return nil, err
	}
	res.BytesSent = units.Bytes(sent)
	rounds, err := r.i64()
	if err != nil {
		return nil, err
	}
	res.Rounds = int(rounds)
	down, err := r.i64()
	if err != nil {
		return nil, err
	}
	res.Downtime = time.Duration(down)
	if res.Source, err = r.power(); err != nil {
		return nil, err
	}
	if res.Target, err = r.power(); err != nil {
		return nil, err
	}
	if res.SourceFeatures, err = r.features(); err != nil {
		return nil, err
	}
	if res.TargetFeatures, err = r.features(); err != nil {
		return nil, err
	}
	if r.off != len(r.b) {
		return nil, artefactErrf(reasonMalformed, "%d trailing payload bytes", len(r.b)-r.off)
	}
	return res, nil
}

// artefactWriter accumulates the little-endian encoding.
type artefactWriter struct{ b []byte }

func (w *artefactWriter) u8(v byte)      { w.b = append(w.b, v) }
func (w *artefactWriter) u64(v uint64)   { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *artefactWriter) i64(v int64)    { w.u64(uint64(v)) }
func (w *artefactWriter) f64(v float64)  { w.u64(math.Float64bits(v)) }
func (w *artefactWriter) bytes(p []byte) { w.b = append(w.b, p...) }
func (w *artefactWriter) str(s string)   { w.u64(uint64(len(s))); w.b = append(w.b, s...) }

func (w *artefactWriter) profile(p workload.Profile) {
	w.str(p.Name)
	w.f64(float64(p.CPUPerVCPU))
	w.f64(p.DirtyPagesPerSecond)
	w.f64(float64(p.WorkingSet))
	w.f64(float64(p.HotFrac))
	w.f64(p.HotProb)
}

func (w *artefactWriter) energy(e trace.PhaseEnergy) {
	w.f64(float64(e.Initiation))
	w.f64(float64(e.Transfer))
	w.f64(float64(e.Activation))
}

func (w *artefactWriter) power(p *trace.PowerTrace) {
	w.str(p.Host)
	grid := writeAxis(w, p.Samples, powerAt)
	for _, s := range p.Samples {
		if !grid {
			w.i64(int64(s.At))
		}
		w.f64(float64(s.Power))
	}
}

func (w *artefactWriter) features(f *trace.FeatureTrace) {
	w.str(f.Host)
	grid := writeAxis(w, f.Samples, featureAt)
	var prev [4]uint64
	for i := range f.Samples {
		bits := featureBits(&f.Samples[i])
		var mask byte
		for j := range bits {
			if bits[j] != prev[j] {
				mask |= 1 << j
			}
		}
		w.u8(mask)
		if !grid {
			w.i64(int64(f.Samples[i].At))
		}
		for j := range bits {
			if mask&(1<<j) != 0 {
				w.u64(bits[j])
			}
		}
		prev = bits
	}
}

// writeAxis writes a trace's time axis and sample count, and reports
// whether the samples lie on a grid and so carry no timestamps.
func writeAxis[S any](w *artefactWriter, samples []S, at func(*S) time.Duration) bool {
	t0, step, grid := timeGrid(samples, at)
	if grid {
		w.u8(1)
		w.i64(t0)
		w.i64(step)
	} else {
		w.u8(0)
	}
	w.u64(uint64(len(samples)))
	return grid
}

// timeGrid reports whether the samples' timestamps lie on a grid — sample
// i at t0 + i·step — and which. An empty trace lies on none; a
// one-sample trace's grid has step 0.
func timeGrid[S any](samples []S, at func(*S) time.Duration) (t0, step int64, ok bool) {
	var g gridRun
	for i := range samples {
		g.add(i, int64(at(&samples[i])))
	}
	return g.t0, g.step, g.on
}

// gridRun follows timestamps as they stream past and reports whether
// every one so far lies on the grid its first two set: sample i at
// t0 + i·step. The arithmetic wraps exactly as timeAxis.at does, so a
// grid found here reproduces every timestamp. The encoder asks it
// whether to store a grid, and the decoder whether spelled-out
// timestamps should have been one, so both apply one definition.
type gridRun struct {
	t0, step int64
	on       bool // every timestamp so far lies on the grid; false before the first
}

func (g *gridRun) add(i int, at int64) {
	switch i {
	case 0:
		g.t0, g.on = at, true
	case 1:
		g.step = at - g.t0
	default:
		g.on = g.on && at == g.t0+int64(i)*g.step
	}
}

func powerAt(s *trace.Sample) time.Duration          { return s.At }
func featureAt(s *trace.FeatureSample) time.Duration { return s.At }

// featureBits returns a feature sample's fields as IEEE-754 bits, in
// mask-bit order; featureSample is its inverse.
func featureBits(s *trace.FeatureSample) [4]uint64 {
	return [4]uint64{
		math.Float64bits(float64(s.HostCPU)),
		math.Float64bits(float64(s.VMCPU)),
		math.Float64bits(float64(s.Bandwidth)),
		math.Float64bits(float64(s.DirtyRatio)),
	}
}

func featureSample(at int64, bits *[4]uint64) trace.FeatureSample {
	return trace.FeatureSample{
		At:         time.Duration(at),
		HostCPU:    units.Utilisation(math.Float64frombits(bits[0])),
		VMCPU:      units.Utilisation(math.Float64frombits(bits[1])),
		Bandwidth:  units.BitsPerSecond(math.Float64frombits(bits[2])),
		DirtyRatio: units.Fraction(math.Float64frombits(bits[3])),
	}
}

// artefactReader walks the payload with explicit bounds checks: every
// read that would cross the end of the buffer is a truncation error, and
// every declared element count is capped by the bytes actually present
// before anything is allocated, so a corrupt length field cannot demand
// gigabytes. With traces false it checks every sample but allocates
// none: power and features return nil traces.
type artefactReader struct {
	b      []byte
	off    int
	traces bool
}

// short is the truncation error of a read of n bytes where the payload
// has only left.
func short(n, left int) error {
	return artefactErrf(reasonTruncated, "payload ends %d bytes early", n-left)
}

func (r *artefactReader) take(n int) ([]byte, error) {
	if n < 0 || len(r.b)-r.off < n {
		return nil, short(n, len(r.b)-r.off)
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p, nil
}

func (r *artefactReader) u8() (byte, error) {
	p, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return p[0], nil
}

func (r *artefactReader) u64() (uint64, error) {
	p, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

func (r *artefactReader) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

func (r *artefactReader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

// str reads a length-prefixed string and returns its bytes, which alias
// the payload.
func (r *artefactReader) str() ([]byte, error) {
	n, err := r.u64()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.off) {
		return nil, artefactErrf(reasonMalformed, "string length %d exceeds remaining payload", n)
	}
	return r.take(int(n))
}

// count reads an element count and bounds it by the bytes remaining for
// elements of the given size.
func (r *artefactReader) count(itemSize int) (int, error) {
	n, err := r.u64()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.b)-r.off)/uint64(itemSize) {
		return 0, artefactErrf(reasonMalformed, "element count %d exceeds remaining payload", n)
	}
	return int(n), nil
}

func (r *artefactReader) energy() (trace.PhaseEnergy, error) {
	var e trace.PhaseEnergy
	for _, dst := range []*units.Joules{&e.Initiation, &e.Transfer, &e.Activation} {
		v, err := r.f64()
		if err != nil {
			return e, err
		}
		*dst = units.Joules(v)
	}
	return e, nil
}

// timeAxis is a trace's decoded time axis: on a grid, sample i is at
// t0 + i·step; off one, every sample carries its own timestamp.
type timeAxis struct {
	grid     bool
	t0, step int64
}

func (a timeAxis) at(i int) int64 { return a.t0 + int64(i)*a.step }

// axis reads a trace's time axis and sample count. gridSize is the
// fewest bytes a sample on a grid takes; a spelled-out timestamp adds 8.
// The count is capped by the bytes present before anything is
// allocated, and the canonical-form rules that need only the axis and
// the count are enforced here; the one that needs the timestamps is
// onGrid.
func (r *artefactReader) axis(gridSize int) (timeAxis, int, error) {
	var a timeAxis
	flag, err := r.u8()
	if err != nil {
		return a, 0, err
	}
	switch flag {
	case 0:
		gridSize += 8
	case 1:
		a.grid = true
		if a.t0, err = r.i64(); err != nil {
			return a, 0, err
		}
		if a.step, err = r.i64(); err != nil {
			return a, 0, err
		}
	default:
		return a, 0, artefactErrf(reasonMalformed, "time-axis flag %d", flag)
	}
	n, err := r.count(gridSize)
	if err != nil {
		return a, 0, err
	}
	if a.grid && n == 0 {
		return a, 0, artefactErrf(reasonMalformed, "time grid on an empty trace")
	}
	if a.grid && n == 1 && a.step != 0 {
		return a, 0, artefactErrf(reasonMalformed, "time step %d on a one-sample trace", a.step)
	}
	return a, n, nil
}

// onGrid rejects n spelled-out timestamps that lie on a grid, which g
// followed as they streamed past: the canonical encoding stores those
// as the grid.
func onGrid(g *gridRun, n int) error {
	if g.on {
		return artefactErrf(reasonMalformed, "spelled-out timestamps of %d samples lie on a grid", n)
	}
	return nil
}

func (r *artefactReader) power() (*trace.PowerTrace, error) {
	host, err := r.str()
	if err != nil {
		return nil, err
	}
	a, n, err := r.axis(8)
	if err != nil {
		return nil, err
	}
	// axis capped n by the bytes present, so every sample fits.
	size := 8
	if !a.grid {
		size = 16
	}
	b := r.b[r.off : r.off+n*size]
	r.off += n * size
	var p *trace.PowerTrace
	if r.traces {
		p = &trace.PowerTrace{Host: string(host), Samples: make([]trace.Sample, n)}
	} else if a.grid {
		return nil, nil // no timestamps to check
	}
	var g gridRun
	for i := 0; i < n; i++ {
		s := b[i*size : (i+1)*size]
		at := a.at(i)
		if !a.grid {
			at = int64(binary.LittleEndian.Uint64(s))
			g.add(i, at)
			s = s[8:]
		}
		if p != nil {
			p.Samples[i] = trace.Sample{At: time.Duration(at), Power: units.Watts(math.Float64frombits(binary.LittleEndian.Uint64(s)))}
		}
	}
	if err := onGrid(&g, n); err != nil {
		return nil, err
	}
	return p, nil
}

func (r *artefactReader) features() (*trace.FeatureTrace, error) {
	host, err := r.str()
	if err != nil {
		return nil, err
	}
	a, n, err := r.axis(1)
	if err != nil {
		return nil, err
	}
	var f *trace.FeatureTrace
	if r.traces {
		f = &trace.FeatureTrace{Host: string(host), Samples: make([]trace.FeatureSample, n)}
	}
	var g gridRun
	var prev [4]uint64 // the previous sample's fields; all zero before the first
	b, off := r.b, r.off
	for i := 0; i < n; i++ {
		if off == len(b) {
			return nil, short(1, 0)
		}
		mask := b[off]
		off++
		if mask > 0xf {
			return nil, artefactErrf(reasonMalformed, "sample %d: mask %#x sets bits above bit 3", i, mask)
		}
		at := a.at(i)
		if !a.grid {
			if len(b)-off < 8 {
				return nil, short(8, len(b)-off)
			}
			at = int64(binary.LittleEndian.Uint64(b[off:]))
			off += 8
			g.add(i, at)
		}
		for j := range prev {
			if mask&(1<<j) == 0 {
				continue
			}
			if len(b)-off < 8 {
				return nil, short(8, len(b)-off)
			}
			v := binary.LittleEndian.Uint64(b[off:])
			off += 8
			if v == prev[j] {
				return nil, artefactErrf(reasonMalformed, "sample %d: field %d marked changed but repeats its bits", i, j)
			}
			prev[j] = v
		}
		if f != nil {
			f.Samples[i] = featureSample(at, &prev)
		}
	}
	r.off = off
	if err := onGrid(&g, n); err != nil {
		return nil, err
	}
	return f, nil
}

// migrationKindGuard pins the assumption that migration.Kind stays an
// integer enum: a change to a non-integer representation would silently
// alter the canonical key encoding.
var _ = int64(migration.Kind(0))
