package trace

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/units"
)

func TestFeatureTraceAppendAndAt(t *testing.T) {
	ft := &FeatureTrace{Host: "m01"}
	for i := 0; i < 5; i++ {
		err := ft.Append(FeatureSample{
			At:      time.Duration(i) * time.Second,
			HostCPU: units.Utilisation(i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := ft.Append(FeatureSample{At: time.Second}); err == nil {
		t.Error("out-of-order feature append must fail")
	}
	// Nearest-sample lookup, one cursor for the whole walk.
	c := featureCursor{samples: ft.Samples}
	cases := []struct {
		at   time.Duration
		want units.Utilisation
	}{
		{-time.Second, 0},
		{400 * time.Millisecond, 0},
		{600 * time.Millisecond, 1},
		{2 * time.Second, 2},
		{10 * time.Second, 4},
	}
	for _, tc := range cases {
		if got := c.nearest(tc.at); got.HostCPU != tc.want {
			t.Errorf("nearest(%v).HostCPU = %v, want %v", tc.at, got.HostCPU, tc.want)
		}
	}
}

func TestAlign(t *testing.T) {
	pt := &PowerTrace{Host: "m01"}
	ft := &FeatureTrace{Host: "m01"}
	for i := 0; i <= 60; i++ {
		at := time.Duration(i) * time.Second
		_ = pt.Append(at, units.Watts(500+i))
		_ = ft.Append(FeatureSample{At: at, HostCPU: units.Utilisation(i), DirtyRatio: 0.5})
	}
	b := Boundaries{MS: 10 * time.Second, TS: 15 * time.Second, TE: 45 * time.Second, ME: 50 * time.Second}
	obs, err := Align(pt, ft, b)
	if err != nil {
		t.Fatal(err)
	}
	// Samples at 10..49 s inclusive are inside the migration: 40 samples.
	if len(obs) != 40 {
		t.Fatalf("aligned %d observations, want 40", len(obs))
	}
	for _, o := range obs {
		if o.Phase == PhaseNormal {
			t.Fatalf("normal-phase observation leaked: %+v", o)
		}
		if o.DirtyRatio != 0.5 {
			t.Fatalf("feature not joined: %+v", o)
		}
	}
	byPhase := make(map[Phase]int)
	for _, o := range obs {
		byPhase[o.Phase]++
	}
	if byPhase[PhaseInitiation] != 5 {
		t.Errorf("initiation samples = %d, want 5", byPhase[PhaseInitiation])
	}
	if byPhase[PhaseTransfer] != 30 {
		t.Errorf("transfer samples = %d, want 30", byPhase[PhaseTransfer])
	}
	if byPhase[PhaseActivation] != 5 {
		t.Errorf("activation samples = %d, want 5", byPhase[PhaseActivation])
	}
}

func TestAlignErrors(t *testing.T) {
	pt := mkTrace(t, 1, 2, 3)
	ft := &FeatureTrace{}
	_ = ft.Append(FeatureSample{At: 0})
	if _, err := Align(pt, ft, Boundaries{MS: 10, TS: 5}); err == nil {
		t.Error("bad boundaries must fail")
	}
	if _, err := Align(&PowerTrace{}, ft, validB()); err == nil {
		t.Error("empty power trace must fail")
	}
	if _, err := Align(pt, &FeatureTrace{}, validB()); err == nil {
		t.Error("empty feature trace must fail")
	}
	// No power samples inside the window.
	far := Boundaries{MS: time.Hour, TS: time.Hour + time.Second, TE: time.Hour + 2*time.Second, ME: time.Hour + 3*time.Second}
	if _, err := Align(pt, ft, far); err == nil {
		t.Error("window beyond trace must fail")
	}
}

func TestWriteCSV(t *testing.T) {
	tr := mkTrace(t, 400.25, 512.5, 630.756)
	if err := tr.Append(3500*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// A header, then one "seconds,watts" row per sample: seconds to the
	// millisecond, watts to two decimals.
	want := "time_s,power_w\n" +
		"0.000,400.25\n" +
		"1.000,512.50\n" +
		"2.000,630.76\n" +
		"3.500,0.00\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV wrote\n%s\nwant\n%s", got, want)
	}
}
