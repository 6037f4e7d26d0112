package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"heteropart/internal/metrics"
	"heteropart/internal/service"
)

// hotBodies are the service workload's repeated requests: after
// warm-up each is a memoized flight (until MaxFlights evicts it).
// Cholesky stays off n = 1024, a known defect (README.md).
var hotBodies = []string{
	`{"app":"MatrixMul","n":1536}`,
	`{"app":"BlackScholes","platform":"dual-gpu-bus"}`,
	`{"app":"Nbody","n":262144}`,
	`{"app":"HotSpot","n":2048,"platform":"tri-asym-p2p"}`,
	`{"app":"STREAM-Seq","sync":"forced"}`,
	`{"app":"STREAM-Loop","n":3932160,"sync":"none"}`,
	`{"app":"Convolution","platform":"dual-gpu-bus"}`,
	`{"app":"Cholesky","n":2048}`,
}

const (
	// poolSize is the number of distinct unique-size requests; a run
	// draws its unique keys from the first poolSize-poolWarm entries
	// and warms up on the rest.
	poolSize = 12288
	poolWarm = 256
	// A run is a sequence of chunks of one composition: chunkHot
	// requests for each hot body and chunkUnique pool entries, so 70%
	// of requests are hot.
	chunkHot    = 35
	chunkUnique = 120
	chunkLen    = chunkHot*8 + chunkUnique
	// chunksPerSec sizes a run from its length in seconds.
	chunksPerSec = 6
	// maxFlights is small enough that memoized flights get evicted.
	maxFlights = 64
)

// poolBody is unique-size request i: a matchmake at a size no other
// entry shares, so it misses every cache and executes.
func poolBody(i int) []byte {
	return []byte(fmt.Sprintf(`{"app":"STREAM-Seq","n":%d,"platform":"tri-asym-p2p"}`, 1<<22+int64(i)*4096))
}

func serviceKey(body string) string { return "service " + body }

// serviceRequest is one timed request: a hot body or a pool entry.
type serviceRequest struct {
	body []byte
	hot  int // index into hotBodies, or -1
	pool int // pool index when hot < 0
}

// serviceMix returns the fixed request multiset of a run of the given
// number of chunks, each shuffled by seed; the seed also picks which
// pool entries serve as the unique keys.
func serviceMix(seed int64, chunks int) ([]serviceRequest, error) {
	unique := chunks * chunkUnique
	if unique > poolSize-poolWarm {
		return nil, fmt.Errorf("service run needs %d unique keys, pool has %d", unique, poolSize-poolWarm)
	}
	rng := rand.New(rand.NewSource(seed))
	keys := rng.Perm(poolSize - poolWarm)[:unique]
	seq := make([]serviceRequest, 0, chunks*chunkLen)
	for c := 0; c < chunks; c++ {
		chunk := make([]serviceRequest, 0, chunkLen)
		for h, body := range hotBodies {
			for k := 0; k < chunkHot; k++ {
				chunk = append(chunk, serviceRequest{body: []byte(body), hot: h})
			}
		}
		for _, i := range keys[c*chunkUnique : (c+1)*chunkUnique] {
			chunk = append(chunk, serviceRequest{body: poolBody(i), hot: -1, pool: i})
		}
		rng.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
		seq = append(seq, chunk...)
	}
	return seq, nil
}

func serviceWorkload() *workload {
	return &workload{
		name:    "service-closed",
		clients: nproc,
		setUp: func(g *golden, seed int64, seconds int) (bench, error) {
			seq, err := serviceMix(seed, seconds*chunksPerSec)
			if err != nil {
				return nil, err
			}
			return startService(g, seq)
		},
		trace: traceService,
	}
}

// serviceBench is a service on a loopback listener plus keep-alive
// clients.
type serviceBench struct {
	g      *golden
	svc    *service.Service
	reg    *metrics.Registry
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	seq    []serviceRequest
}

func newService(reg *metrics.Registry) *service.Service {
	return service.New(service.Config{Workers: nproc, MaxFlights: maxFlights, Metrics: reg})
}

// startService starts the service and warms it up.
func startService(g *golden, seq []serviceRequest) (*serviceBench, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	b := &serviceBench{
		g: g, reg: reg, svc: newService(reg), seq: seq,
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/matchmake",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nproc}},
	}
	b.srv = &http.Server{Handler: b.svc.Handler()}
	go func() { b.served <- b.srv.Serve(ln) }()
	if err := warmUp(b.post); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// warmUp sends every hot body once, memoizing its flight, and the
// reserved warm-up pool entries.
func warmUp(send func(body []byte) (outcome, error)) error {
	for _, body := range hotBodies {
		if _, err := send([]byte(body)); err != nil {
			return err
		}
	}
	for i := poolSize - poolWarm; i < poolSize; i++ {
		if _, err := send(poolBody(i)); err != nil {
			return err
		}
	}
	return nil
}

func (b *serviceBench) len() int      { return len(b.seq) }
func (b *serviceBench) chunkLen() int { return chunkLen }

func (b *serviceBench) do(i int) (int, error) {
	r := b.seq[i]
	status, data, err := b.roundTrip(r.body)
	if err != nil {
		return 0, err
	}
	return b.check(r, status, data)
}

func (b *serviceBench) post(body []byte) (outcome, error) {
	status, data, err := b.roundTrip(body)
	if err != nil {
		return outcome{}, err
	}
	return decodeOutcome(status, body, data)
}

// roundTrip sends one request over the loopback socket.
func (b *serviceBench) roundTrip(body []byte) (int, []byte, error) {
	resp, err := b.client.Post(b.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// close drains the server, waits for it to stop, and cancels every
// remaining flight.
func (b *serviceBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx) // a timeout leaves Serve to Close below
	_ = b.srv.Close()
	if err := <-b.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
	}
	b.client.CloseIdleConnections()
	b.svc.Close()
}

// serveInProcess answers one request through the handler, no socket.
func serveInProcess(h http.Handler, body []byte) (outcome, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/matchmake", bytes.NewReader(body)))
	return decodeOutcome(rec.Code, body, rec.Body.Bytes())
}

// decodeOutcome reads the outcome out of a v1 envelope.
func decodeOutcome(status int, body, data []byte) (outcome, error) {
	var env struct {
		Result struct {
			Outcome *service.OutcomeView `json:"outcome"`
		} `json:"result"`
		Error *service.ErrorView `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return outcome{}, fmt.Errorf("%s: status %d, bad envelope: %w", body, status, err)
	}
	if status != http.StatusOK || env.Error != nil || env.Result.Outcome == nil {
		return outcome{}, fmt.Errorf("%s: status %d: %s", body, status, data)
	}
	v := env.Result.Outcome
	return outcome{
		MakespanNs: v.MakespanNs, Instances: v.Instances, Decisions: v.Decisions,
		Transfers: v.Transfers, HtoDBytes: v.HtoDBytes, DtoHBytes: v.DtoHBytes,
	}, nil
}

// recordService records the hot bodies' outcomes and the pool digests,
// answering through the handler in process. A fresh service per block
// of entries keeps the runner's unbounded result cache small.
func recordService(g *golden) error {
	svc := newService(nil)
	defer func() { svc.Close() }()
	h := svc.Handler()
	for _, body := range hotBodies {
		oc, err := serveInProcess(h, []byte(body))
		if err != nil {
			return err
		}
		g.Ops[serviceKey(body)] = oc
	}
	g.Pool = make([]string, poolSize)
	for i := 0; i < poolSize; i++ {
		if i%1024 == 0 {
			svc.Close()
			svc = newService(nil)
			h = svc.Handler()
		}
		oc, err := serveInProcess(h, poolBody(i))
		if err != nil {
			return err
		}
		g.Pool[i] = oc.digest()
	}
	return nil
}

// serviceTraceChunks is the length of the traced service run.
const serviceTraceChunks = 5

// traceService runs a loopback closed loop with a span per request
// (round trip, then the benchmark's own decode and golden check), then
// the same requests through the handler in process, on a fresh service
// warmed up the same way.
func traceService(g *golden, seed int64, tr *tracer) (*layerReport, error) {
	seq, err := serviceMix(seed, serviceTraceChunks)
	if err != nil {
		return nil, err
	}
	rep := &layerReport{metrics: make(map[string]metric), shares: make(map[string]float64)}
	b, err := startService(g, seq)
	if err != nil {
		return nil, err
	}
	counters := []string{"service_coalesce_hits_total", "service_coalesce_misses_total",
		"runner_cache_hits_total", "runner_cache_misses_total"}
	before := make(map[string]int64)
	for _, c := range counters {
		before[c] = b.reg.Counter(c).Value()
	}
	roundTrips := make([]time.Duration, len(seq))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(seq) {
					return
				}
				root := tr.begin("request", 0, i)
				id := tr.begin("service.roundtrip", root, i)
				status, data, err := b.roundTrip(seq[i].body)
				roundTrips[i] = tr.end(id)
				id = tr.begin("bench.check", root, i)
				if err == nil {
					_, err = b.check(seq[i], status, data)
				}
				tr.end(id)
				tr.end(root)
				mu.Lock()
				rep.attempted++
				if err != nil {
					rep.fail(err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	delta := make(map[string]float64)
	for _, c := range counters {
		delta[c] = float64(b.reg.Counter(c).Value() - before[c])
	}
	b.close()

	svc := newService(nil)
	defer svc.Close()
	h := svc.Handler()
	if err := warmUp(func(body []byte) (outcome, error) { return serveInProcess(h, body) }); err != nil {
		return nil, err
	}
	handler := make([]time.Duration, len(seq))
	for i, r := range seq {
		t0 := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/matchmake", bytes.NewReader(r.body)))
		handler[i] = time.Since(t0)
		rep.attempted++
		if _, err := b.check(r, rec.Code, rec.Body.Bytes()); err != nil {
			rep.fail(err)
		}
	}

	ratio := func(hit, miss string) float64 {
		if d := delta[hit] + delta[miss]; d > 0 {
			return delta[hit] / d
		}
		return 0
	}
	handlerP50 := quantile(durationsMs(handler), 0.5)
	m := rep.metrics
	m["service.handler_ms_p50"] = metric{handlerP50, "ms"}
	m["service.roundtrip_overhead_ms"] = metric{quantile(durationsMs(roundTrips), 0.5) - handlerP50, "ms"}
	m["service.coalesce_hit_ratio"] = metric{ratio("service_coalesce_hits_total", "service_coalesce_misses_total"), "1"}
	m["runner.result_cache_hit_ratio"] = metric{ratio("runner_cache_hits_total", "runner_cache_misses_total"), "1"}

	self := tr.selfTimes(tr.workload)
	total := self["request"] + self["service.roundtrip"] + self["bench.check"]
	rep.shares["handler+roundtrip"] = 100 * float64(self["service.roundtrip"]) / float64(total)
	rep.shares["check"] = 100 * float64(self["bench.check"]) / float64(total)
	rep.shares["other"] = 100 * float64(self["request"]) / float64(total)
	return rep, nil
}

// check decodes one response and compares it with the golden record.
func (b *serviceBench) check(r serviceRequest, status int, data []byte) (int, error) {
	oc, err := decodeOutcome(status, r.body, data)
	if err != nil {
		return 0, err
	}
	if r.hot >= 0 {
		return oc.Instances, b.g.check(serviceKey(hotBodies[r.hot]), oc)
	}
	return oc.Instances, b.g.checkPool(r.pool, oc)
}
