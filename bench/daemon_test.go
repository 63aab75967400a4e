package main

import (
	"runtime"
	"testing"
	"time"
)

// TestDaemonMixSmokeShutsDownClean runs daemon-mix on three scenarios
// for 40 requests and checks that every request and every drain succeed,
// and that every goroutine the run started (servers, connections on both
// sides, the cache's publisher) has exited once it returns.
func TestDaemonMixSmokeShutsDownClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs kernels and a daemon")
	}
	before := runtime.NumGoroutine()
	o, err := runSmokeDaemon(smokeEnv(t, "daemon-mix"))
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", o.Failed, o.Attempted, o.Failures)
	}
	if n := len(o.Cold) + len(o.Warm); n != smokeDaemon.maxOps {
		t.Errorf("%d requests, want %d", n, smokeDaemon.maxOps)
	}
	if len(o.Cold) == 0 {
		t.Error("no generated spec was requested")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the run, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
