package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Load reads, strictly decodes and validates one scenario file. Unknown
// JSON fields are errors — a typoed field in a committed scenario must
// fail loudly, not silently select a default. JSON syntax errors carry
// the byte offset; all failures are *Error values with a field path.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &Error{Scenario: path, Path: "(file)", Msg: err.Error()}
	}
	return Parse(path, data)
}

// Parse strictly decodes and validates one scenario from raw bytes —
// the decode path Load shares with callers that hold scenario JSON but
// no file (the fuzz target). The name labels errors; it is usually a
// path but any request identifier works. Every failure, for any input,
// is a *Error value with a field path — Parse never panics on malformed
// bytes. Validating is compiling, and the spec keeps what it compiled
// to, so Compile on the returned spec lowers nothing again while the
// spec is unchanged.
func Parse(name string, data []byte) (*Spec, error) {
	s, err := Decode(name, data)
	if err != nil {
		return nil, err
	}
	c, err := s.compile()
	if err != nil {
		return nil, err
	}
	// A decoded spec holds no value encoding/json cannot write back.
	if enc, err := json.Marshal(s); err == nil {
		s.kept = &keptCompile{c: c, enc: enc}
	}
	return s, nil
}

// Decode is Parse without the validation: the strict JSON decode alone,
// which rejects malformed JSON, unknown fields, trailing data, a key
// repeated within one object and a key that names a field only without
// regard to case, but checks nothing the spec's values mean. A caller
// that compiles the spec anyway (wavm3d, after admission) decodes it
// with this and gets the pathed errors from Compile, without lowering
// the spec twice.
func Decode(name string, data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		// Syntax errors carry their own offset; for everything else
		// (truncated files, type mismatches, unknown fields) the decoder's
		// input offset localises the failure.
		offset := dec.InputOffset()
		if syn, ok := err.(*json.SyntaxError); ok {
			offset = syn.Offset
		}
		return nil, &Error{Scenario: name, Path: "(json)",
			Msg: fmt.Sprintf("malformed JSON near byte %d: %v", offset, err)}
	}
	// Reject trailing garbage after the top-level value; only white space
	// may follow it (dec.More would let a stray '}' or ']' through).
	if len(bytes.TrimSpace(data[dec.InputOffset():])) > 0 {
		return nil, &Error{Scenario: name, Path: "(json)", Msg: "trailing data after the scenario object"}
	}
	if err := checkKeys(name, data); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadDir loads every *.json file in dir in name order and cross-checks
// the set: scenario names and effective seeds must be unique, so library
// entries stay independent samples with distinct run-cache identities.
func LoadDir(dir string) ([]*Spec, error) {
	return LoadGlob(filepath.Join(dir, "*.json"))
}

// LoadGlob is LoadDir for an arbitrary glob pattern.
func LoadGlob(pattern string) ([]*Spec, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, &Error{Scenario: pattern, Path: "(glob)", Msg: err.Error()}
	}
	if len(files) == 0 {
		return nil, &Error{Scenario: pattern, Path: "(glob)", Msg: "no scenario files match"}
	}
	sort.Strings(files)
	specs := make([]*Spec, 0, len(files))
	for _, f := range files {
		s, err := Load(f)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	if err := CheckUnique(specs); err != nil {
		return nil, err
	}
	return specs, nil
}

// CheckUnique enforces the library invariant on an arbitrary spec set:
// scenario names and effective seeds must be unique, so entries stay
// independent samples with distinct run-cache identities. Runners that
// combine sources (a directory plus explicit files) apply it to the
// combined set.
func CheckUnique(specs []*Spec) error {
	byName := make(map[string]bool, len(specs))
	bySeed := make(map[int64]string, len(specs)) // effective seed -> name
	for _, s := range specs {
		if byName[s.Name] {
			return errf(s.Name, "name", "duplicate scenario name in the loaded set")
		}
		byName[s.Name] = true
		seed := s.EffectiveSeed()
		if prev, dup := bySeed[seed]; dup {
			return errf(s.Name, "seed", "effective seed %d collides with scenario %q; scenarios must be independent samples — pick a distinct name or an explicit seed", seed, prev)
		}
		bySeed[seed] = s.Name
	}
	return nil
}

// Info is one registry listing entry.
type Info struct {
	// Name and Description come from the spec.
	Name, Description string
	// Datacenter reports the data-centre plan form.
	Datacenter bool
	// Cluster is the host count of an N-host cluster timeline (0 for
	// the other forms).
	Cluster int
	// Phases is the phase count (0 for single-block scenarios).
	Phases int
}

// List returns the catalog of a loaded spec set in name order.
func List(specs []*Spec) []Info {
	out := make([]Info, 0, len(specs))
	for _, s := range specs {
		in := Info{
			Name:        s.Name,
			Description: s.Description,
			Datacenter:  s.Datacenter != nil,
			Phases:      len(s.Phases),
		}
		if s.Cluster != nil {
			in.Cluster = s.Cluster.hostCount()
		}
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
