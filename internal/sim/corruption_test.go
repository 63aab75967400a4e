package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCacheCorruptionMatrix injects every corruption class the decoder
// distinguishes — flipped bytes, truncation, zero-length files, stale
// encoding versions, an artefact renamed onto the wrong key — and
// demands the same recovery from each, through either lookup: the read
// is a miss, the bad file is quarantined under its reason, the kernel
// re-runs, a good artefact is republished under the same name, and the
// final result is bit-identical to a cold run (a summary lookup's warm
// read: its summary, without traces).
func TestCacheCorruptionMatrix(t *testing.T) {
	sc := diskScenario(99)
	want, err := Run(sc) // uncached reference = what a cold run must produce
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		reason  string
		corrupt func(t *testing.T, good []byte) []byte
	}{
		{"flip-payload-byte", reasonChecksum, func(t *testing.T, good []byte) []byte {
			bad := append([]byte(nil), good...)
			bad[len(bad)/2] ^= 0x01
			return bad
		}},
		{"flip-checksum-byte", reasonChecksum, func(t *testing.T, good []byte) []byte {
			bad := append([]byte(nil), good...)
			bad[len(bad)-1] ^= 0x80
			return bad
		}},
		{"truncate", reasonTruncated, func(t *testing.T, good []byte) []byte {
			return good[:len(good)-10]
		}},
		{"zero-length", reasonTruncated, func(t *testing.T, good []byte) []byte {
			return nil
		}},
		{"stale-version", reasonVersion, func(t *testing.T, good []byte) []byte {
			bad := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(bad[8:12], artefactVersion+7)
			return bad
		}},
		{"bad-magic", reasonMagic, func(t *testing.T, good []byte) []byte {
			bad := append([]byte(nil), good...)
			copy(bad, "notarun!")
			return bad
		}},
		{"wrong-key", reasonKey, func(t *testing.T, good []byte) []byte {
			// A structurally valid artefact that answers a different key:
			// checksum holds, identity does not.
			other := diskScenario(100)
			res, err := Run(other)
			if err != nil {
				t.Fatal(err)
			}
			kb := encodeCacheKey(cacheKey(other))
			return encodeArtefact(kb, sha256.Sum256(kb), res)
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, l := range lookups {
				t.Run(l.name, func(t *testing.T) {
					corruptionCase(t, sc, want, tc.reason, tc.corrupt, l.get, l.traces)
				})
			}
		})
	}
}

// corruptionCase runs one TestCacheCorruptionMatrix case through one
// lookup.
func corruptionCase(t *testing.T, sc Scenario, want *RunResult, reason string,
	corrupt func(t *testing.T, good []byte) []byte, get lookupFunc, traces bool) {
	dir := t.TempDir()
	// Publish a good artefact, then corrupt it in place.
	if _, err := get(newDiskCache(t, dir), context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	files := artefactFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("seed run left %d artefacts", len(files))
	}
	path := files[0]
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, corrupt(t, good), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh cache must recover: miss, quarantine, re-run, same bits —
	// traces too, for a kernel run memoises its full result.
	c := newDiskCache(t, dir)
	got, err := get(c, context.Background(), sc)
	if err != nil {
		t.Fatalf("corrupt artefact surfaced as an error: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recovered result differs from the cold reference")
	}
	st := c.Snapshot()
	if st.Quarantined != 1 || st.KernelRuns != 1 || st.DiskHits != 0 {
		t.Errorf("recovery stats = %+v, want 1 quarantine + 1 kernel run + 0 disk hits", st)
	}

	// The bad file is preserved under its reason for diagnosis...
	qpath := filepath.Join(dir, quarantineDir, filepath.Base(path)+"."+reason)
	if _, err := os.Stat(qpath); err != nil {
		t.Errorf("quarantined file not at %s: %v", qpath, err)
	}
	// ...and a byte-identical good artefact is back under the name.
	republished, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("artefact not republished: %v", err)
	}
	if !bytes.Equal(republished, good) {
		t.Error("republished artefact is not byte-identical to the original")
	}

	// The dir is fully healed: the next process is pure disk hits.
	warm := newDiskCache(t, dir)
	got2, err := get(warm, context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRun(got2, want, traces) {
		t.Error("post-heal warm run differs from the cold reference")
	}
	if st := warm.Snapshot(); st.KernelRuns != 0 || st.DiskHits != 1 {
		t.Errorf("post-heal stats = %+v, want a pure disk hit", st)
	}
}
