package sim

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"
)

// FuzzCacheArtefactDecode pins the decoder's safety properties against
// arbitrary input: it never panics; its full and summary-only modes
// agree on accepting or rejecting, with the same error, and on every
// summary field; and whenever it accepts an input, re-encoding the
// decoded result reproduces that input byte for byte — so a
// wrong-checksum or otherwise mangled artefact can never be returned as
// a result. Seeds are a real artefact plus targeted mutations of its
// header, identity, payload and checksum regions.
func FuzzCacheArtefactDecode(f *testing.F) {
	sc := diskScenario(5)
	res, err := Run(sc)
	if err != nil {
		f.Fatal(err)
	}
	keyBytes := encodeCacheKey(cacheKey(sc))
	hash := sha256.Sum256(keyBytes)
	good := encodeArtefact(keyBytes, hash, res)

	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:artefactHeaderLen])                         // header only
	f.Add(good[:len(good)-artefactSumLen])                  // checksum sheared off
	f.Add(append([]byte(nil), good[artefactHeaderLen:]...)) // payload without header
	for _, i := range []int{0, 8, 12, 20, 20 + artefactSumLen, len(good) / 2, len(good) - 1} {
		m := append([]byte(nil), good...)
		m[i] ^= 0xff
		f.Add(m)
	}
	// A length field inflated far beyond the buffer: the bounded reader
	// must refuse, not allocate.
	huge := append([]byte(nil), good...)
	for i := 12; i < 20; i++ {
		huge[i] = 0xff
	}
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeArtefact(data, keyBytes, hash, true) // must never panic
		sum, serr := decodeArtefact(data, keyBytes, hash, false)
		switch {
		case (err == nil) != (serr == nil):
			t.Fatalf("decode modes disagree: full %v, summary-only %v", err, serr)
		case err != nil && err.Error() != serr.Error():
			t.Fatalf("decode modes reject differently: full %v, summary-only %v", err, serr)
		case err == nil && !sameRun(sum, got, false):
			t.Fatal("the summary-only decode is not the full decode's summary without traces")
		}
		if err != nil {
			var aerr *artefactError
			if !errors.As(err, &aerr) {
				t.Errorf("decode error is not an *artefactError: %v", err)
			}
			return
		}
		// Accepted ⇒ the checksum held and the identity matched, so the
		// canonical re-encoding must reproduce the input exactly.
		if !bytes.Equal(encodeArtefact(keyBytes, hash, got), data) {
			t.Error("accepted artefact does not re-encode to its own bytes")
		}
	})
}
