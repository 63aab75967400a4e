package main

import "testing"

// quickDigest is the SHA-256 of "wavm3bench -quick -workers 1" standard
// output at seed 1.
const quickDigest = "5b10bc0ae6cea4bb48108e12cfe1f06c83ff5227ac33b3dd8ccd3f8ff9765539"

// TestPaperSessionMatchesCommand checks that paperSession writes what
// wavm3bench writes: under the -quick repeat rule it must reproduce the
// command's output byte for byte. The workload only fixes the repeat
// count on top of it.
func TestPaperSessionMatchesCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the -quick paper session")
	}
	cache, err := cliCache("")
	if err != nil {
		t.Fatal(err)
	}
	m, o := paperConfigs(1, cache)
	m.MinRuns, m.VarianceTol = 2, 0.9
	o.MinRuns, o.VarianceTol = 2, 0.9
	out := newDigest()
	if err := paperSession(m, o, out, nil); err != nil {
		t.Fatal(err)
	}
	if got := out.sum(); got != quickDigest {
		t.Errorf("paper session under the -quick rule: output %s, wavm3bench -quick %s", got, quickDigest)
	}
}
