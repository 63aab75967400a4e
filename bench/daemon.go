package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
)

// The daemon-mix workload is the service layer under concurrent callers:
// an in-process wavm3d over a persistent cache directory serves the
// library scenarios by name to two closed-loop clients on keep-alive
// connections (memory hits: compile, render, HTTP), while generated
// migration specs, each a kernel miss and an artefact publish, arrive on
// a fixed schedule. It mixes concurrent cache reads and writes, which the
// command-line workloads never do.
type daemonMix struct {
	files     []string
	setupReps int
	// genEvery is the arrival period of generated specs: the k-th is due
	// k·genEvery after the loop starts and goes out with the next request
	// a client sends.
	genEvery time.Duration
	// segment is how long one round's clients run (at most the window).
	segment time.Duration
	// maxOps, when set, stops the clients after this many requests
	// instead of at the end of the segment.
	maxOps int
}

const (
	// daemonClients is the number of closed-loop clients, one connection
	// each: as many as the benchmark box has cores.
	daemonClients = 2
	// genTemplate is the committed migration spec the generated specs are
	// made from: a short paper point, so a miss costs a few kernel
	// milliseconds and the requests it delays stay few.
	genTemplate = "c1-cpuload-live.json"
	// drainGrace is the SIGTERM grace wavm3d uses by default.
	drainGrace = 30 * time.Second
)

// daemonFull is the daemon-mix workload. A round's clients run for 2 s,
// so that a run pools several processes.
var daemonFull = daemonMix{files: libraryFiles, setupReps: 2, genEvery: 125 * time.Millisecond, segment: 2 * time.Second}

func runDaemon(e *env) (*outcome, error) { return runDaemonMix(e, daemonFull) }

// daemon is an in-process wavm3d serving on a loopback listener.
type daemon struct {
	srv    *service.Server
	wrap   *http.Server // serves a wrapped handler instead of srv's own server; nil when unwrapped
	served chan error
	base   string
}

// startDaemon builds a service.Server over the scenario directory and
// cache as wavm3d does and serves it on a loopback port. The admission
// bounds and run timeout are left to the service's defaults, which are
// wavm3d's (4 running, 8 queued, 2 minutes). With wrap, the server's
// handler is served wrapped in it.
func startDaemon(dir string, cache *sim.Cache, wrap func(http.Handler) http.Handler) (*daemon, error) {
	srv, err := service.New(service.Config{
		ScenarioDir: dir,
		Workers:     workers,
		Cache:       cache,
		Logger:      log.New(io.Discard, "", 0),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	if wrap == nil {
		go func() { d.served <- srv.Serve(ln) }()
	} else {
		d.wrap = &http.Server{Handler: wrap(srv.Handler())}
		go func() { d.served <- d.wrap.Serve(ln) }()
	}
	return d, nil
}

// stop drains the daemon as SIGTERM does, closing its cache, and waits
// for Serve to return.
func (d *daemon) stop() error {
	if d.wrap != nil {
		ctx, cancel := context.WithTimeout(context.Background(), drainGrace)
		defer cancel()
		if err := d.wrap.Shutdown(ctx); err != nil {
			return err
		}
	}
	if err := d.srv.Shutdown(drainGrace); err != nil {
		return err
	}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// newClient is a keep-alive client holding at most daemonClients
// connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: daemonClients,
		MaxConnsPerHost:     daemonClients,
		DisableCompression:  true,
	}}
}

// post sends one run request: ?name= when body is nil, a spec otherwise.
func post(c *http.Client, url string, body []byte) ([]byte, int, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	resp, err := c.Post(url, "application/json", r)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// libraryNames lists the daemon's library through GET /v1/scenarios, in
// the daemon's (name) order.
func libraryNames(c *http.Client, base string) ([]string, error) {
	resp, err := c.Get(base + "/v1/scenarios")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var list struct {
		Scenarios []struct {
			Name string `json:"name"`
		} `json:"scenarios"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("listing the library: %w", err)
	}
	names := make([]string, len(list.Scenarios))
	for i, s := range list.Scenarios {
		names[i] = s.Name
	}
	return names, nil
}

// genSpec is the k-th generated spec of seed: the template renamed
// "gen-k", with a seed derived from the benchmark seed and that name and
// a repeat policy that always runs the kernel twice, so that every
// generated spec costs the same number of kernel runs.
func genSpec(template []byte, seed int64, k int) ([]byte, error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(template, &fields); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("gen-%d", k)
	fields["name"], _ = json.Marshal(name) // a string always marshals
	fields["seed"], _ = json.Marshal(derivedSeed(seed, name))
	fields["repeat"] = json.RawMessage(`{"min_runs": 2, "variance_tol": 100}`)
	return json.Marshal(fields)
}

// daemonInputs are one round's inputs: the library directory the daemon
// serves and the generated spec bodies in arrival order, the first of
// them gen-first.
type daemonInputs struct {
	specDir string
	first   int
	gens    [][]byte
}

// inputs generates the inputs of the round for the run's seed. Rounds
// number their generated specs apart, so each is a new kernel miss.
func (m daemonMix) inputs(e *env) (*daemonInputs, error) {
	specDir, err := writeSpecs(e.work, m.files, e.seed)
	if err != nil {
		return nil, err
	}
	template, err := os.ReadFile(filepath.Join(scenarioDir, genTemplate))
	if err != nil {
		return nil, err
	}
	n := int(m.segment/m.genEvery) + 1
	in := &daemonInputs{specDir: specDir, first: e.round * n}
	for k := in.first; k < in.first+n; k++ {
		body, err := genSpec(template, e.seed, k)
		if err != nil {
			return nil, err
		}
		in.gens = append(in.gens, body)
	}
	return in, nil
}

// daemonState is a running daemon with its inputs, its client, the
// library names and the bytes the first request for each name received.
type daemonState struct {
	*daemonInputs
	d      *daemon
	cache  *sim.Cache
	client *http.Client
	names  []string
	warm   map[string][]byte
}

// start starts a daemon serving the inputs over a cache newCache builds
// on cacheDir, its handler wrapped in wrap when set.
func (in *daemonInputs) start(cacheDir string, newCache func(string) (*sim.Cache, error), wrap func(http.Handler) http.Handler) (*daemonState, error) {
	st := &daemonState{daemonInputs: in, client: newClient(), warm: map[string][]byte{}}
	var err error
	if st.cache, err = newCache(cacheDir); err != nil {
		return nil, err
	}
	if st.d, err = startDaemon(in.specDir, st.cache, wrap); err != nil {
		return nil, err
	}
	if st.names, err = libraryNames(st.client, st.d.base); err != nil {
		_ = st.close() // the listing error is the one to report
		return nil, err
	}
	return st, nil
}

// requestAll requests every library name once, in name order, writing
// the responses to w. Each request is a span of rec.
func (st *daemonState) requestAll(w io.Writer, rec *recorder) error {
	for _, n := range st.names {
		var body []byte
		var status int
		err := rec.span("client.request/"+n, func() (err error) {
			body, status, err = post(st.client, st.d.base+"/v1/runs?name="+n, nil)
			return err
		})
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %v %s", n, status, err, body)
		}
		if st.warm[n] == nil {
			st.warm[n] = body
		}
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// close stops the daemon and drops the client's idle connections.
func (st *daemonState) close() error {
	st.client.CloseIdleConnections()
	return st.d.stop()
}

// namePlan is the order of by-name requests: consecutive seeded
// permutations of the library, so every stretch of len(names) requests
// asks for each scenario once.
type namePlan struct {
	seed  int64
	names []string
	mu    sync.Mutex
	block int
	perm  []int
}

func (p *namePlan) at(i int) string {
	n := len(p.names)
	p.mu.Lock()
	defer p.mu.Unlock()
	if b := i / n; p.perm == nil || b != p.block {
		p.block, p.perm = b, rand.New(rand.NewSource(int64(splitmix64(uint64(p.seed)^uint64(b))))).Perm(n)
	}
	return p.names[p.perm[i%n]]
}

// daemonCacheDir is the run's cache directory, shared by its rounds.
func daemonCacheDir(e *env) string { return filepath.Join(e.shared, "daemon-cache") }

func prepareDaemon(e *env) error { return daemonFull.fill(e) }

// fill fills the run's cache directory, untimed: a daemon over it runs
// every library scenario once. A run fills it before its first round, so
// that every set-up repetition of every round is a restart over a filled
// directory rather than the first one paying for every kernel run.
func (m daemonMix) fill(e *env) error {
	specDir, err := writeSpecs(e.work, m.files, e.seed)
	if err != nil {
		return err
	}
	st, err := (&daemonInputs{specDir: specDir}).start(daemonCacheDir(e), cliCache, nil)
	if err != nil {
		return err
	}
	if err := st.requestAll(io.Discard, nil); err != nil {
		_ = st.close() // the request error is the one to report
		return fmt.Errorf("filling the cache: %w", err)
	}
	return st.close()
}

// runDaemonMix runs one round of daemon-mix over the run's filled cache
// directory: setupReps set-ups (a daemon start over the directory and a
// request for every library name), the clients for one segment, a drain,
// then a check of every generated spec's response against an uncached
// service.Exec of that spec.
func runDaemonMix(e *env, m daemonMix) (*outcome, error) {
	o := &outcome{}
	cacheDir := daemonCacheDir(e)
	ref, err := e.reference()
	if err != nil {
		return nil, err
	}
	want := &digestCheck{want: ref}
	in, err := m.inputs(e)
	if err != nil {
		return nil, err
	}
	var st *daemonState
	for i := 0; i < m.setupReps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("daemon shutdown: %w", err)
			}
		}
		warm := newDigest()
		d, err := o.timed(func() (err error) {
			if st, err = in.start(cacheDir, cliCache, nil); err != nil {
				return err
			}
			return st.requestAll(warm, nil)
		})
		if err != nil {
			if st != nil {
				_ = st.close() // the set-up error is the one to report
			}
			return nil, fmt.Errorf("daemon-mix set-up: %w", err)
		}
		o.Setup = append(o.Setup, d.Seconds())
		if !want.ok(warm.sum()) {
			o.fail("warm-up responses %s, want %s", warm.sum(), want.want)
		}
	}
	o.probe()
	genSums := m.loop(min(m.segment, e.budget), e.seed, st, o)
	o.probe()
	if err := st.close(); err != nil {
		o.fail("daemon shutdown: %v", err)
	}
	if q := st.cache.Snapshot().Quarantined; q != 0 {
		o.fail("the daemon's cache quarantined %d artefacts", q)
	}
	verifyGens(in, genSums, &o.checks)
	return o, nil
}

// loop runs the clients for the segment (or, with maxOps, until that
// many requests went out), recording every request in o, and returns the
// digest of each generated spec's response by arrival index.
func (m daemonMix) loop(segment time.Duration, seed int64, st *daemonState, o *outcome) map[int]string {
	plan := &namePlan{seed: seed, names: st.names}
	var (
		mu      sync.Mutex // guards o and genSums
		genSums = map[int]string{}
		next    atomic.Int64 // next by-name request
		sent    atomic.Int64 // generated specs sent
		ops     atomic.Int64 // requests started
		wg      sync.WaitGroup
	)
	start := time.Now()
	more := func() bool {
		if m.maxOps > 0 {
			return ops.Add(1) <= int64(m.maxOps)
		}
		return time.Since(start) < segment
	}
	client := func() {
		defer wg.Done()
		for more() {
			// A generated spec that has fallen due goes out first. Its
			// latency counts from when it is sent; how late that was,
			// waiting for the client's previous request, is kept apart.
			if k := sent.Load(); int(k) < len(st.gens) {
				due := start.Add(time.Duration(k) * m.genEvery)
				if t := time.Now(); !t.Before(due) && sent.CompareAndSwap(k, k+1) {
					body, status, err := post(st.client, st.d.base+"/v1/runs", st.gens[k])
					lat := time.Since(t)
					mu.Lock()
					o.Attempted++
					o.Cold = append(o.Cold, ms(lat))
					o.Late = append(o.Late, ms(t.Sub(due)))
					if err != nil || status != http.StatusOK {
						o.fail("gen-%d: status %d: %v", st.first+int(k), status, err)
					} else {
						genSums[int(k)] = sha(body)
					}
					mu.Unlock()
					continue
				}
			}
			name := plan.at(int(next.Add(1) - 1))
			t := time.Now()
			body, status, err := post(st.client, st.d.base+"/v1/runs?name="+name, nil)
			lat := time.Since(t)
			mu.Lock()
			o.Attempted++
			o.Warm = append(o.Warm, ms(lat))
			if err != nil || status != http.StatusOK || !bytes.Equal(body, st.warm[name]) {
				o.fail("%s: status %d: %v (%d bytes, warm-up %d)", name, status, err, len(body), len(st.warm[name]))
			}
			mu.Unlock()
		}
	}
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go client()
	}
	wg.Wait()
	return genSums
}

// verifyGens compares each generated spec's response with an uncached
// service.Exec of the same spec.
func verifyGens(in *daemonInputs, sums map[int]string, c *checks) {
	for k, body := range in.gens {
		got, ok := sums[k]
		if !ok {
			continue // not sent, or already counted as failed
		}
		name := fmt.Sprintf("gen-%d", in.first+k)
		out := newDigest()
		spec, err := scenario.Parse(name, body)
		if err == nil {
			var compiled *scenario.Compiled
			if compiled, err = spec.Compile(); err == nil {
				_, err = service.Exec(context.Background(), out, compiled, workers, nil)
			}
		}
		switch {
		case err != nil:
			c.fail("%s: uncached run: %v", name, err)
		case out.sum() != got:
			c.fail("%s: response %s, uncached run %s", name, got, out.sum())
		}
	}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
