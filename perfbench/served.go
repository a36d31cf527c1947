package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"primopt/internal/flow"
	"primopt/internal/obs"
	"primopt/internal/serve"
)

// serveClients is serve_mix's number of closed-loop HTTP clients.
const serveClients = 2

// serveFixture is a running daemon on a loopback listener plus the
// request stream its clients send.
type serveFixture struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error // http.Server.Serve's result
	url    string
	client *http.Client
	stream []request
	ref    reference
}

// setUpServeMix starts the daemon (workers = CPUs), waits for /readyz,
// and sends one warm-up request per circuit so the shared memory tier
// holds each circuit's primitives.
func setUpServeMix(ctx context.Context, seed int64, ref reference, parts *setupParts) (fixture, error) {
	// The schematic evaluations belong to the set-up of every workload.
	tech, _, err := buildCircuits(ctx, smallCircuits, ref, parts)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	sp := startSpan("bench.ready")
	cfg := serve.Config{Workers: runtime.NumCPU()}
	if obs.Default() != nil {
		// A traced run reads each request's counters from its response;
		// the daemon's own sink must not be the process-wide one.
		cfg.Trace = obs.New()
	}
	srv, err := serve.New(tech, cfg)
	if err != nil {
		sp.End()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sp.End()
		return nil, errors.Join(err, srv.Close())
	}
	f := &serveFixture{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		stream: serveStream(seed, opsPerRun),
		ref:    ref,
	}
	go func() { f.served <- f.hs.Serve(ln) }()
	err = f.awaitReady(ctx)
	sp.End()
	if err != nil {
		return nil, errors.Join(err, f.close())
	}
	parts.ready = append(parts.ready, time.Since(t0))

	t0 = time.Now()
	sp = startSpan("bench.warm")
	defer sp.End()
	for _, c := range smallCircuits {
		o := f.send(ctx, request{pair: pair{c, 1}}, false)
		if o.failed {
			return nil, errors.Join(fmt.Errorf("warm-up request %s/1 failed: %v", c, o.wrong), f.close())
		}
	}
	parts.warm = append(parts.warm, time.Since(t0))
	return f, nil
}

// awaitReady polls /readyz until the daemon answers 200.
func (f *serveFixture) awaitReady(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := f.client.Do(req); err == nil {
			// Only the status matters; a failed drain just closes the connection.
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

func (f *serveFixture) clients() int { return serveClients }

func (f *serveFixture) op(ctx context.Context, i int, traced bool) opResult {
	return f.send(ctx, f.stream[i%len(f.stream)], traced)
}

// send runs one request and checks its answer: status 200, metrics
// identical to the reference, and a clean DRC/LVS report when asked.
func (f *serveFixture) send(ctx context.Context, q request, traced bool) opResult {
	o := opResult{served: true, verify: q.Verify, repeat: q.Repeat, traced: traced}
	body, err := json.Marshal(serve.Request{Circuit: q.Circuit, Seed: q.Seed, Verify: q.Verify, Trace: traced})
	if err != nil {
		o.failed, o.wrong = true, err
		return o
	}
	sp := startSpan("bench.http")
	defer sp.End()
	t0 := time.Now()
	status, runtimeMs, payload, err := f.post(ctx, body)
	o.latency = time.Since(t0)
	if err != nil {
		o.failed, o.wrong = true, fmt.Errorf("%s: %w", q.pair, err)
		return o
	}
	o.wait = o.latency - time.Duration(runtimeMs)*time.Millisecond
	key := refKey(q.Circuit, flow.Optimized, q.Seed)
	if status != http.StatusOK {
		o.failed = true
		o.shed = status == http.StatusTooManyRequests
		var eb serve.ErrorBody
		if err := json.Unmarshal(payload, &eb); err != nil {
			o.wrong = fmt.Errorf("%s: status %d, body %q", q.pair, status, payload)
			return o
		}
		if status == http.StatusInternalServerError && eb.Kind == "internal" {
			o.wrong = f.ref.check(key, nil, eb.Error)
		}
		return o
	}
	var resp serve.Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		o.failed, o.wrong = true, fmt.Errorf("%s: decoding response: %w", q.pair, err)
		return o
	}
	if o.wrong = f.ref.check(key, resp.Metrics, ""); o.wrong != nil {
		o.failed = true
	}
	if q.Verify && (resp.Verify == nil || !resp.Verify.Clean()) {
		o.failed = true
		o.wrong = fmt.Errorf("%s: verify report not clean", q.pair)
	}
	if resp.Trace != nil {
		o.stages, o.counters = stageTimes(resp.Trace.Spans), map[string]int64{}
		for _, m := range resp.Trace.Metrics {
			if m.Kind == "counter" {
				o.counters[m.Name] += int64(m.Value)
			}
		}
	}
	return o
}

// post sends one generate request and reads the whole answer.
func (f *serveFixture) post(ctx context.Context, body []byte) (status int, runtimeMs int64, payload []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	payload, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, nil, err
	}
	if h := resp.Header.Get("X-Primopt-Runtime-Ms"); h != "" {
		runtimeMs, err = strconv.ParseInt(h, 10, 64)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("runtime header %q: %w", h, err)
		}
	}
	return resp.StatusCode, runtimeMs, payload, nil
}

// close drains the daemon, stops the listener, and waits for both.
func (f *serveFixture) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := f.srv.Drain(ctx)
	err = errors.Join(err, f.hs.Shutdown(ctx))
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	f.client.CloseIdleConnections()
	return errors.Join(err, f.srv.Close())
}
