package main

import (
	"errors"
	"testing"
	"time"
)

// TestMeasurePoolsRoundsWithinBudget checks that measure starts a round
// only while the previous one would still end inside the budget, runs
// at least one, and pools every round's samples and failures.
func TestMeasurePoolsRoundsWithinBudget(t *testing.T) {
	round := func(k int) (*outcome, error) {
		time.Sleep(30 * time.Millisecond)
		o := &outcome{Warm: []float64{float64(k)}, RSSMiB: []float64{10}}
		o.Attempted = 1
		if k == 1 {
			o.fail("round %d", k)
		}
		return o, nil
	}
	o, n, err := measure(100*time.Millisecond, round)
	if err != nil {
		t.Fatal(err)
	}
	// Three 30 ms rounds fit a 100 ms budget; a slow scheduler may fit two.
	if n < 2 || n > 3 || len(o.Warm) != n || o.Attempted != n || o.Failed != 1 || len(o.RSSMiB) != n {
		t.Errorf("%d rounds pooled into %+v; want 2 or 3 rounds, one failure", n, o)
	}
	if o, n, _ := measure(time.Nanosecond, round); n != 1 || len(o.Warm) != 1 {
		t.Errorf("a spent budget ran %d rounds, want 1", n)
	}
	if _, _, err := measure(time.Second, func(int) (*outcome, error) { return nil, errors.New("boom") }); err == nil {
		t.Error("a failing round did not fail the run")
	}
}
