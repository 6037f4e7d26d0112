// Package service is the matchmaking-as-a-service layer: an HTTP API
// over the heteropart facade that turns the library's decide/execute
// pipeline into a long-running daemon (cmd/hetserved), engineered for
// load rather than for one-shot CLI use.
//
// The request lifecycle (DESIGN.md §11) is admit → coalesce → decide →
// execute → respond:
//
//   - Admission: a bounded queue in front of a bounded worker pool.
//     When the queue is full the request is rejected immediately with
//     429 and a Retry-After hint — the service sheds load instead of
//     accumulating unbounded goroutines.
//   - Coalescing: requests are single-flighted on the same canonical
//     key that backs the runner's plan cache (Spec.PlanKey), so a
//     thundering herd of identical requests costs one simulation.
//     A flight renders its answer once, when it finishes: the plan is
//     encoded compact, the Response marshaled, and the v1 envelope
//     assembled around it. Completed flights stay memoized as those
//     envelope bytes (bounded by Config.MaxFlights), so a joined
//     waiter or a later identical request is answered with a copy,
//     never an encode. An answer that cannot be encoded fails its
//     flight (500) and is forgotten like any failure. The flights are
//     a coalesce.Group, the same mechanism behind the runner's caches.
//   - Deadlines: every request waits under a context.Context carrying
//     its deadline (Request.TimeoutMs, else Config.DefaultTimeout);
//     the flight itself runs under its own context, plumbed through
//     the facade's *Context entry points down to the simulator's phase
//     boundaries. A request that gives up leaves its flight; when the
//     last one leaves, the flight is canceled and its key freed, so
//     the next identical request starts a new one.
//   - Isolation: a panicking request is recovered, counted
//     (service_panics_total) and answered with 500; the daemon stays
//     up.
//
// The package consumes only the public heteropart surface for
// matchmaking and execution — it is deliberately a client of the API
// it fronts, and every simulating endpoint runs through the facade's
// Runner — plus internal/metrics and internal/telemetry, whose types
// the facade aliases.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"heteropart"
	"heteropart/internal/coalesce"
	"heteropart/internal/metrics"
	"heteropart/internal/telemetry"
)

// StatusClientClosedRequest is the (nginx-conventional) status for a
// request abandoned by its deadline or by the client going away.
const StatusClientClosedRequest = 499

// Config parameterizes a Service.
type Config struct {
	// Workers bounds concurrently executing flights (default 4). The
	// underlying sweep runner is built with the same width, so every
	// admitted flight can always acquire a runner slot.
	Workers int
	// Queue bounds flights admitted but not yet executing (default
	// 4*Workers). Beyond it requests are rejected with 429.
	Queue int
	// DefaultTimeout applies to requests that do not set timeout_ms
	// (default 2 minutes).
	DefaultTimeout time.Duration
	// MaxFlights bounds the memoized completed flights (default 1024);
	// the oldest completed flights are evicted first.
	MaxFlights int
	// AllowFaults admits requests carrying a fault schedule. Off by
	// default: fault injection is a chaos-testing surface, and a public
	// endpoint should not let callers crash simulated devices unless
	// the operator opted in (hetserved -allow-faults).
	AllowFaults bool
	// Metrics, when non-nil, receives the service_* instruments and is
	// shared with the runner (runner_*, plan_cache_*).
	Metrics *metrics.Registry
	// Spans, when non-nil, receives one KindRequest span per request
	// plus the sweep/run/plan/execute spans beneath it. The tracer
	// retains every span in memory; long-running daemons should leave
	// it nil unless they bound collection themselves.
	Spans *telemetry.Tracer
}

// Service is the HTTP matchmaking service. Build one with New, mount
// Handler on a mux, and Close it after the HTTP server has drained.
type Service struct {
	cfg    Config
	runner *heteropart.Runner
	reg    *metrics.Registry
	spans  *telemetry.Tracer

	// base is the parent of every flight context; Close cancels it, and
	// a canceled base marks the service closed.
	base       context.Context
	cancelBase context.CancelFunc

	// sem bounds executing flights.
	sem chan struct{}

	// flights coalesces identical requests and memoizes the envelope
	// bytes of successful ones.
	flights *coalesce.Group[[]byte]

	mu sync.Mutex
	// calib is the per-platform calibration state, keyed by the
	// request's platform name ("" = the default paper platform). POST
	// /v1/calibrate installs a report; subsequent requests for that
	// platform run with its scales applied. Guarded by mu.
	calib map[string]*heteropart.CalibrationReport

	queued    atomic.Int64
	inflightN atomic.Int64

	rejected, coalesceHits, coalesceMisses *metrics.Counter
	panics, canceled                       *metrics.Counter
	inflight, queueDepth, flightCount      *metrics.Gauge

	appsJSON, strategiesJSON, platformsJSON []byte

	// panicHook, when set (tests only), runs inside the flight worker
	// to exercise panic isolation.
	panicHook func()
}

// New builds a service and its private sweep runner.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * cfg.Workers
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 2 * time.Minute
	}
	if cfg.MaxFlights <= 0 {
		cfg.MaxFlights = 1024
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		reg:        cfg.Metrics,
		spans:      cfg.Spans,
		base:       base,
		cancelBase: cancel,
		sem:        make(chan struct{}, cfg.Workers),
		calib:      make(map[string]*heteropart.CalibrationReport),
	}
	s.runner = heteropart.NewRunner(heteropart.RunnerConfig{
		Workers: cfg.Workers, Metrics: cfg.Metrics, Spans: cfg.Spans,
	})
	m := s.reg
	s.rejected = m.Counter("service_rejected_total", "requests shed with 429 at admission")
	s.coalesceHits = m.Counter("service_coalesce_hits_total", "requests that joined or recalled an existing flight")
	s.coalesceMisses = m.Counter("service_coalesce_misses_total", "requests that started a new flight")
	s.panics = m.Counter("service_panics_total", "request panics recovered by the isolation boundary")
	s.canceled = m.Counter("service_canceled_total", "requests abandoned by deadline or client disconnect")
	s.inflight = m.Gauge("service_inflight", "flights currently executing")
	s.queueDepth = m.Gauge("service_queue_depth", "flights admitted but not yet executing")
	s.flightCount = m.Gauge("service_flights", "live + memoized flights")
	s.flights = coalesce.New[[]byte](base, cfg.MaxFlights, s.admit, s.coalesceHits, s.coalesceMisses)
	// Listing views hold only strings, integers and booleans, which
	// always encode.
	s.appsJSON, _ = renderResult(appsListing())
	s.strategiesJSON, _ = renderResult(strategiesListing())
	s.platformsJSON, _ = renderResult(platformsListing())
	return s
}

// Runner exposes the service's sweep runner (shared plan/result
// caches) for embedding callers.
func (s *Service) Runner() *heteropart.Runner { return s.runner }

// Close cancels every remaining flight. Call it after the HTTP server
// has drained (http.Server.Shutdown), so in-flight requests finish
// normally and only orphaned computations are torn down.
func (s *Service) Close() { s.cancelBase() }

// Handler returns the /v1 API surface.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/matchmake", s.wrap("matchmake", s.handleMatchmake))
	mux.HandleFunc("POST /v1/plan", s.wrap("plan", s.handlePlan))
	mux.HandleFunc("POST /v1/execute", s.wrap("execute", s.handleExecute))
	mux.HandleFunc("POST /v1/calibrate", s.wrap("calibrate", s.handleCalibrate))
	mux.HandleFunc("GET /v1/apps", s.wrap("apps", func(w http.ResponseWriter, r *http.Request) {
		writeRaw(w, s.appsJSON)
	}))
	mux.HandleFunc("GET /v1/strategies", s.wrap("strategies", func(w http.ResponseWriter, r *http.Request) {
		writeRaw(w, s.strategiesJSON)
	}))
	mux.HandleFunc("GET /v1/platforms", s.wrap("platforms", func(w http.ResponseWriter, r *http.Request) {
		writeRaw(w, s.platformsJSON)
	}))
	return mux
}

// Request is the JSON body of the POST endpoints.
type Request struct {
	// App names a bundled application (all POST endpoints).
	App string `json:"app,omitempty"`
	// Structure, on /v1/matchmake, asks for analysis of a parsed
	// kernel structure instead of a bundled app: classification and
	// Table-I ranking only, no execution.
	Structure string `json:"structure,omitempty"`
	// Strategy forces a strategy; empty lets the analyzer matchmake.
	Strategy string `json:"strategy,omitempty"`
	// N and Iters parameterize the problem (0 = paper default).
	N     int64 `json:"n,omitempty"`
	Iters int   `json:"iters,omitempty"`
	// Sync is "default", "forced" or "none".
	Sync string `json:"sync,omitempty"`
	// Platform names a catalog platform to simulate (GET /v1/platforms
	// lists them; empty = the paper's Xeon+K20m testbed). Unknown names
	// are rejected with 400. Requests for different platforms coalesce
	// separately: the platform fingerprint is part of the flight key.
	Platform string `json:"platform,omitempty"`
	// Threads is the CPU worker-thread count m of the simulated host
	// (0 = the platform's default).
	Threads int `json:"threads,omitempty"`
	// Chunks is the dynamic task count (0 = platform thread count).
	Chunks int `json:"chunks,omitempty"`
	// NoSeed keeps DP-Perf's profiling inside the measurement.
	NoSeed bool `json:"noseed,omitempty"`
	// TimeoutMs overrides the service's default request deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Plan, on /v1/execute, is the serialized ExecutionPlan to replay.
	Plan json.RawMessage `json:"plan,omitempty"`
	// Fault is a serialized FaultSchedule to inject into the run.
	// Requires the service to be started with fault injection enabled
	// (Config.AllowFaults); rejected with 400 otherwise. Faulted
	// flights coalesce separately from clean ones — the schedule's
	// canonical encoding is part of the flight key.
	Fault json.RawMessage `json:"fault,omitempty"`
	// Calibration, on /v1/calibrate, is the serialized
	// CalibrationReport to install for the request's platform. A report
	// fitted for a different platform (or a thread count that changes
	// the fingerprint) is refused with 409 calibration_stale.
	Calibration json.RawMessage `json:"calibration,omitempty"`
}

// ReportView is the analyzer's decision, rendered for the wire.
type ReportView struct {
	App       string   `json:"app"`
	Class     string   `json:"class"`
	NeedsSync bool     `json:"needs_sync"`
	Ranked    []string `json:"ranked"`
	Best      string   `json:"best"`
}

// OutcomeView summarizes a measured execution.
type OutcomeView struct {
	Strategy   string  `json:"strategy"`
	MakespanNs int64   `json:"makespan_ns"`
	GPURatio   float64 `json:"gpu_ratio"`
	HtoDBytes  int64   `json:"htod_bytes"`
	DtoHBytes  int64   `json:"dtoh_bytes"`
	Transfers  int     `json:"transfers"`
	Instances  int     `json:"instances"`
	Decisions  int     `json:"decisions"`
}

// Response is the result payload of a successful POST request (the
// "result" member of the v1 envelope). A flight renders its Response
// once; coalesced waiters share the rendered bytes.
type Response struct {
	Report      *ReportView      `json:"report,omitempty"`
	Plan        json.RawMessage  `json:"plan,omitempty"`
	Outcome     *OutcomeView     `json:"outcome,omitempty"`
	Calibration *CalibrationView `json:"calibration,omitempty"`
}

// CalibrationView summarizes an installed calibration (the result of
// POST /v1/calibrate).
type CalibrationView struct {
	// Platform is the request's platform name ("" = the paper default).
	Platform string `json:"platform"`
	// Fingerprint is the base platform fingerprint the report binds to.
	Fingerprint string `json:"fingerprint"`
	// App is the application the report was fitted from.
	App string `json:"app"`
	// Scales is the number of fitted correction factors.
	Scales int `json:"scales"`
	// Rounds is the number of evidence rounds behind the fit.
	Rounds int `json:"rounds"`
}

// Envelope is the uniform v1 response shape: every endpoint answers
// {"result": ...} on success and {"error": {"code", "message"}} on
// failure — exactly one of the two members is present.
type Envelope struct {
	Result json.RawMessage `json:"result,omitempty"`
	Error  *ErrorView      `json:"error,omitempty"`
}

// ErrorView is the error member of the v1 envelope: a machine-readable
// code (stable across releases, mapped from the facade's typed
// sentinels) plus a human-readable message.
type ErrorView struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Machine-readable error codes of the v1 envelope.
const (
	CodeUnknownApp       = "unknown_app"
	CodeUnknownStrategy  = "unknown_strategy"
	CodePlanInvalid      = "plan_invalid"
	CodePlatformInvalid  = "platform_invalid"
	CodeFaultInvalid     = "fault_invalid"
	CodeOptionsInvalid   = "options_invalid"
	CodePlatformMismatch = "platform_mismatch"
	CodeCalibrationStale = "calibration_stale"
	CodeCanceled         = "canceled"
	CodeBadRequest       = "bad_request"
	CodeAtCapacity       = "at_capacity"
	CodeShuttingDown     = "shutting_down"
	CodeFaultInjected    = "fault_injected"
	CodeInternal         = "internal"
)

// httpErr carries a status and envelope code decided at validation
// time.
type httpErr struct {
	status int
	code   string
	msg    string
}

func (e *httpErr) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpErr {
	return &httpErr{status: http.StatusBadRequest, code: CodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

// sentinels maps the facade's sentinel errors to an HTTP status and an
// envelope code: unknown app/strategy → 404, invalid plan, fault
// schedule, options or platform → 400, stale calibration or platform
// mismatch → 409, abandoned by context → 499, a run halted by an
// injected fault → 500. The first matching row wins, which matters
// where sentinels nest (ErrDeviceLost also matches ErrFaultInjected).
var sentinels = []struct {
	err    error
	status int
	code   string
}{
	{heteropart.ErrUnknownApp, http.StatusNotFound, CodeUnknownApp},
	{heteropart.ErrUnknownStrategy, http.StatusNotFound, CodeUnknownStrategy},
	{heteropart.ErrPlanInvalid, http.StatusBadRequest, CodePlanInvalid},
	{heteropart.ErrFaultInvalid, http.StatusBadRequest, CodeFaultInvalid},
	{heteropart.ErrOptionsInvalid, http.StatusBadRequest, CodeOptionsInvalid},
	{heteropart.ErrPlatformInvalid, http.StatusBadRequest, CodePlatformInvalid},
	{heteropart.ErrCalibrationStale, http.StatusConflict, CodeCalibrationStale},
	{heteropart.ErrPlatformMismatch, http.StatusConflict, CodePlatformMismatch},
	{heteropart.ErrCanceled, StatusClientClosedRequest, CodeCanceled},
	{context.Canceled, StatusClientClosedRequest, CodeCanceled},
	{context.DeadlineExceeded, StatusClientClosedRequest, CodeCanceled},
	{heteropart.ErrFaultInjected, http.StatusInternalServerError, CodeFaultInjected},
}

// statusCode returns err's status and envelope code: an httpErr's own,
// else the first matching sentinel row's, else 500 internal.
func statusCode(err error) (int, string) {
	var he *httpErr
	if errors.As(err, &he) {
		return he.status, he.code
	}
	for _, row := range sentinels {
		if errors.Is(err, row.err) {
			return row.status, row.code
		}
	}
	return http.StatusInternalServerError, CodeInternal
}

// statusFor maps an error to its HTTP status (see sentinels).
func statusFor(err error) int {
	status, _ := statusCode(err)
	return status
}

// codeFor maps an error to its stable envelope code (see sentinels).
func codeFor(err error) string {
	_, code := statusCode(err)
	return code
}

// ---- request handling -------------------------------------------------

func decodeRequest(r *http.Request) (*Request, error) {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	req := &Request{}
	if err := dec.Decode(req); err != nil {
		return nil, badRequest("service: decode request: %v", err)
	}
	return req, nil
}

// specOf validates a request and turns it into a RunSpec. The platform
// defaults to the paper testbed; a request may name any catalog
// platform (platformOf), parameterized by thread count.
func (s *Service) specOf(req *Request) (heteropart.RunSpec, error) {
	if req.App == "" {
		return heteropart.RunSpec{}, badRequest("service: missing app")
	}
	if req.N < 0 || req.Iters < 0 || req.Chunks < 0 {
		return heteropart.RunSpec{}, badRequest("service: n, iters and chunks must be non-negative")
	}
	if req.Chunks > 1<<16 {
		return heteropart.RunSpec{}, badRequest("service: chunks must be at most %d", 1<<16)
	}
	spec, err := s.commonOf(req)
	if err != nil {
		return heteropart.RunSpec{}, err
	}
	spec.App, spec.Strategy, spec.NoSeed = req.App, req.Strategy, req.NoSeed
	spec.N, spec.Iters, spec.Chunks = req.N, req.Iters, req.Chunks
	return spec, nil
}

// commonOf validates the request fields every simulating endpoint
// (matchmake, plan, execute) shares — deadline, thread count, sync
// mode, fault schedule and platform — into the matching RunSpec fields.
// A calibration installed for the platform is applied to Plat; one
// fitted for a different fingerprint (e.g. a different threads
// override) is drift, refused with 409 calibration_stale rather than
// silently served with wrong correction factors.
func (s *Service) commonOf(req *Request) (heteropart.RunSpec, error) {
	var spec heteropart.RunSpec
	if req.TimeoutMs < 0 {
		return spec, badRequest("service: timeout_ms must be non-negative")
	}
	if req.Threads < 0 || req.Threads > 1024 {
		return spec, badRequest("service: threads must be in [0, 1024]")
	}
	if err := spec.Sync.UnmarshalText([]byte(req.Sync)); err != nil {
		return spec, badRequest("service: %v", err)
	}
	var err error
	if spec.Fault, err = s.faultOf(req); err != nil {
		return spec, err
	}
	if spec.Plat, err = platformOf(req); err != nil {
		return spec, err
	}
	s.mu.Lock()
	report := s.calib[req.Platform]
	s.mu.Unlock()
	if report != nil {
		if spec.Plat, err = report.Apply(spec.Plat); err != nil {
			return spec, err
		}
	}
	return spec, nil
}

// platformOf resolves a request's platform: empty means the paper
// testbed, anything else must be a catalog name. Unknown names wrap
// heteropart.ErrPlatformInvalid (→ 400).
func platformOf(req *Request) (*heteropart.Platform, error) {
	if req.Platform == "" {
		return heteropart.PaperPlatform(req.Threads), nil
	}
	return heteropart.PlatformByName(req.Platform, req.Threads)
}

// faultOf parses and validates a request's fault schedule. Fault
// injection must be enabled service-wide; a schedule on a service
// without it is a 400, an invalid schedule wraps ErrFaultInvalid
// (also 400).
func (s *Service) faultOf(req *Request) (*heteropart.FaultSchedule, error) {
	if len(req.Fault) == 0 {
		return nil, nil
	}
	if !s.cfg.AllowFaults {
		return nil, badRequest("service: fault injection is disabled (start the server with -allow-faults)")
	}
	return heteropart.FaultScheduleFromJSON(req.Fault)
}

// flightKey is the coalescing key: the runner's plan-cache key
// (decision inputs only) prefixed by the endpoint, so a matchmake and
// a plan request for the same spec never share a response shape.
// Matchmade specs use the "(matchmake)" placeholder — the analyzer's
// pick is not known before the flight runs, and the placeholder is
// deterministic for the same inputs, which is all coalescing needs.
func flightKey(mode string, spec heteropart.RunSpec) string {
	resolved := spec.Strategy
	if resolved == "" {
		resolved = "(matchmake)"
	}
	return mode + "|" + spec.PlanKey(resolved)
}

func (s *Service) handleMatchmake(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if req.Structure != "" {
		if req.App != "" {
			writeError(w, badRequest("service: app and structure are mutually exclusive"))
			return
		}
		s.analyzeStructure(w, req)
		return
	}
	spec, err := s.specOf(req)
	if err != nil {
		writeError(w, err)
		return
	}
	s.serve(w, r, req, flightKey("matchmake", spec), func(ctx context.Context) (*Response, error) {
		res, err := s.runner.RunContext(ctx, spec)
		if err != nil {
			return nil, err
		}
		return responseOf(res.Report, res.Plan, res.Outcome)
	})
}

func (s *Service) handlePlan(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r)
	if err != nil {
		writeError(w, err)
		return
	}
	spec, err := s.specOf(req)
	if err != nil {
		writeError(w, err)
		return
	}
	s.serve(w, r, req, flightKey("plan", spec), func(ctx context.Context) (*Response, error) {
		pl, rep, err := s.runner.PlanContext(ctx, spec)
		if err != nil {
			return nil, err
		}
		return responseOf(rep, pl, nil)
	})
}

func (s *Service) handleExecute(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if len(req.Plan) == 0 {
		writeError(w, badRequest("service: missing plan"))
		return
	}
	pl, err := heteropart.PlanFromJSON(req.Plan)
	if err != nil {
		writeError(w, err) // wraps ErrPlanInvalid → 400
		return
	}
	if req.App != "" && req.App != pl.App {
		writeError(w, badRequest("service: request app %q does not match plan app %q", req.App, pl.App))
		return
	}
	if req.N != 0 && req.N != pl.N {
		writeError(w, badRequest("service: request n %d does not match plan n %d", req.N, pl.N))
		return
	}
	spec, err := s.commonOf(req)
	if err != nil {
		writeError(w, err)
		return
	}
	spec.App, spec.N, spec.Iters = pl.App, pl.N, pl.Iters
	// The coalescing key hashes the plan's canonical encoding plus the
	// spec's decision inputs, which carry everything else that shapes
	// the execution: sync, platform (calibration included) and fault
	// schedule.
	canonical, err := pl.JSON()
	if err != nil {
		writeError(w, err)
		return
	}
	sum := sha256.Sum256(append(canonical, spec.PlanCanonical(pl.Strategy)...))
	key := "execute|" + hex.EncodeToString(sum[:])
	s.serve(w, r, req, key, func(ctx context.Context) (*Response, error) {
		res, err := s.runner.ExecuteContext(ctx, spec, pl)
		if err != nil {
			return nil, err
		}
		return responseOf(nil, pl, res.Outcome)
	})
}

// analyzeStructure serves the structure-only matchmake path inline:
// parsing and classification are pure and fast, so they bypass
// admission and coalescing entirely.
func (s *Service) analyzeStructure(w http.ResponseWriter, req *Request) {
	st, err := heteropart.ParseStructure(req.Structure)
	if err != nil {
		writeError(w, badRequest("service: parse structure: %v", err))
		return
	}
	cls, err := heteropart.Classify(st)
	if err != nil {
		writeError(w, badRequest("service: classify: %v", err))
		return
	}
	ranked := heteropart.Ranking(cls, st.InterKernelSync)
	if len(ranked) == 0 {
		writeError(w, fmt.Errorf("service: no strategy for class %v", cls))
		return
	}
	writeResult(w, &Response{Report: &ReportView{
		App:       "(structure)",
		Class:     cls.String(),
		NeedsSync: st.InterKernelSync,
		Ranked:    ranked,
		Best:      ranked[0],
	}})
}

// handleCalibrate installs a CalibrationReport as the service's
// calibration state for the request's platform: subsequent matchmake /
// plan flights for that platform run with the report's correction
// factors applied (and coalesce separately from uncalibrated ones —
// the scales are part of the cache key), and execute accepts plans
// decided under them. Validation is pure and fast, so the endpoint
// bypasses admission and coalescing like the structure-only path.
func (s *Service) handleCalibrate(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if len(req.Calibration) == 0 {
		writeError(w, badRequest("service: missing calibration (POST a CalibrationReport)"))
		return
	}
	report, err := heteropart.CalibrationFromJSON(req.Calibration)
	if err != nil {
		writeError(w, badRequest("service: %v", err))
		return
	}
	plat, err := platformOf(req)
	if err != nil {
		writeError(w, err)
		return
	}
	// Drift detection at install time: the report must bind to the
	// platform exactly as this service resolves it.
	if _, err := report.Apply(plat); err != nil {
		writeError(w, err)
		return
	}
	if s.base.Err() != nil {
		writeError(w, errShuttingDown)
		return
	}
	s.mu.Lock()
	s.calib[req.Platform] = report
	s.mu.Unlock()
	writeResult(w, &Response{Calibration: &CalibrationView{
		Platform:    req.Platform,
		Fingerprint: report.Platform,
		App:         report.App,
		Scales:      len(report.Scales),
		Rounds:      len(report.Rounds),
	}})
}

// ---- flight machinery -------------------------------------------------

// Admission refusals, answered before a request joins or starts a
// flight.
var (
	errAtCapacity   = &httpErr{status: http.StatusTooManyRequests, code: CodeAtCapacity, msg: "service: at capacity, retry later"}
	errShuttingDown = &httpErr{status: http.StatusServiceUnavailable, code: CodeShuttingDown, msg: "service: shutting down"}
)

// serve runs one coalescible request end to end: derive the deadline
// context, join or start a flight, wait for it, and send its envelope
// bytes or its error.
func (s *Service) serve(w http.ResponseWriter, r *http.Request, req *Request,
	key string, work func(context.Context) (*Response, error)) {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	if s.base.Err() != nil {
		writeError(w, errShuttingDown)
		return
	}
	// The flight runs under its own context; it carries the request's
	// span, so the runner's spans nest under the request that started
	// the flight.
	parent := telemetry.ParentFrom(ctx)
	body, joined, err := s.flights.Do(ctx, key, func(ctx context.Context) ([]byte, error) {
		return s.fly(telemetry.WithParent(ctx, parent), work)
	})
	s.flightCount.SetInt(int64(s.flights.Len()))
	if err == errAtCapacity {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeError(w, err)
		return
	}
	w.Header().Set("X-Heteropart-Coalesced", strconv.FormatBool(joined))
	if err != nil {
		switch {
		case statusFor(err) == StatusClientClosedRequest:
			s.canceled.Inc()
		case errors.Is(err, coalesce.ErrPanicked):
			s.panics.Inc()
		}
		writeError(w, err)
		return
	}
	writeRaw(w, body)
}

// admit is the flight group's admission check, consulted only before a
// new flight starts (joining one is free): a full queue sheds the
// request with 429, otherwise the new flight counts as queued until it
// gets a worker slot.
func (s *Service) admit() error {
	if int(s.queued.Load()) >= s.cfg.Queue {
		s.rejected.Inc()
		return errAtCapacity
	}
	s.queueDepth.SetInt(s.queued.Add(1))
	return nil
}

// fly executes one admitted flight inside a worker slot and renders
// its envelope there.
func (s *Service) fly(ctx context.Context, work func(context.Context) (*Response, error)) ([]byte, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.queueDepth.SetInt(s.queued.Add(-1))
		return nil, fmt.Errorf("service: abandoned while queued: %w", heteropart.ErrCanceled)
	}
	s.queueDepth.SetInt(s.queued.Add(-1))
	defer func() { <-s.sem }()
	s.inflight.SetInt(s.inflightN.Add(1))
	defer func() { s.inflight.SetInt(s.inflightN.Add(-1)) }()
	if hook := s.panicHook; hook != nil {
		hook()
	}
	resp, err := work(ctx)
	if err != nil {
		return nil, err
	}
	return renderResult(resp)
}

// retryAfter estimates (in whole seconds) when the queue may have
// room: one second of slack per queued batch of workers.
func (s *Service) retryAfter() int {
	q := int(s.queued.Load())
	return 1 + q/s.cfg.Workers
}

// ---- response rendering -----------------------------------------------

// responseOf builds a flight's Response. The plan is encoded compact:
// the envelope carries it compact anyway, so indenting it first (as
// pl.JSON does for files) would only be undone. A plan that cannot be
// encoded, such as one whose Glinda decision carries NaN, fails the
// flight rather than answering without it.
func responseOf(rep *heteropart.Report, pl *heteropart.ExecutionPlan, out *heteropart.Outcome) (*Response, error) {
	resp := &Response{}
	if rep != nil {
		resp.Report = &ReportView{
			App:       rep.App,
			Class:     rep.Class.String(),
			NeedsSync: rep.NeedsSync,
			Ranked:    rep.Ranked,
			Best:      rep.Best,
		}
	}
	if pl != nil {
		b, err := json.Marshal(pl)
		if err != nil {
			return nil, fmt.Errorf("service: encode plan: %v", err)
		}
		resp.Plan = b
	}
	if out != nil && out.Result != nil {
		res := out.Result
		resp.Outcome = &OutcomeView{
			Strategy:   out.Strategy,
			MakespanNs: int64(res.Makespan),
			GPURatio:   res.GPURatio(),
			HtoDBytes:  res.HtoDBytes,
			DtoHBytes:  res.DtoHBytes,
			Transfers:  res.TransferCount,
			Instances:  res.Instances,
			Decisions:  res.Decisions,
		}
	}
	return resp, nil
}

// renderResult is the one renderer of successful answers: it marshals
// v once and wraps it as {"result":<v>}\n. json.Marshal's output is
// compact and valid, so this is exactly json.Marshal(Envelope{Result:
// b}) plus the newline, without scanning b a second time.
func renderResult(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("service: encode response: %v", err)
	}
	const prefix, suffix = `{"result":`, "}\n"
	env := make([]byte, 0, len(prefix)+len(b)+len(suffix))
	env = append(append(append(env, prefix...), b...), suffix...)
	return env, nil
}

// writeResult renders v and sends it with 200, or a 500 when it cannot
// be encoded.
func writeResult(w http.ResponseWriter, v any) {
	b, err := renderResult(v)
	if err != nil {
		writeError(w, err)
		return
	}
	writeRaw(w, b)
}

// writeRaw sends pre-rendered envelope bytes with 200.
func writeRaw(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func writeError(w http.ResponseWriter, err error) {
	env, _ := json.Marshal(Envelope{Error: &ErrorView{Code: codeFor(err), Message: err.Error()}})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(statusFor(err))
	w.Write(append(env, '\n'))
}

// ---- instrumentation --------------------------------------------------

// statusRecorder remembers the response status for metrics and spans.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(c int) {
	if !r.wrote {
		r.code, r.wrote = c, true
	}
	r.ResponseWriter.WriteHeader(c)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// wrap adds per-endpoint metrics, a KindRequest span, and the
// outermost panic boundary around a handler.
func (s *Service) wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.reg.Counter(
		metrics.Label("service_requests_total", "endpoint", endpoint),
		"requests received per endpoint")
	lat := s.reg.Histogram(
		metrics.Label("service_request_ns", "endpoint", endpoint),
		"wall-clock request latency per endpoint")
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		span := s.spans.Begin(0, telemetry.KindRequest, endpoint)
		if span != 0 {
			r = r.WithContext(telemetry.WithParent(r.Context(), span))
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				if !rec.wrote {
					writeError(rec, fmt.Errorf("service: recovered panic: %v", p))
				}
			}
			lat.Observe(time.Since(start).Nanoseconds())
			s.reg.Counter(
				metrics.Label("service_responses_total", "code", strconv.Itoa(rec.code)),
				"responses sent per status code").Inc()
			s.spans.Annotate(span, "status", strconv.Itoa(rec.code))
			s.spans.End(span)
		}()
		h(rec, r)
	}
}

// ---- static listings --------------------------------------------------

// AppView is one entry of GET /v1/apps.
type AppView struct {
	Name         string `json:"name"`
	DefaultN     int64  `json:"default_n"`
	DefaultIters int    `json:"default_iters"`
	Class        string `json:"class,omitempty"`
	NeedsSync    bool   `json:"needs_sync,omitempty"`
	Best         string `json:"best,omitempty"`
}

// StrategyView is one entry of GET /v1/strategies.
type StrategyView struct {
	Name    string   `json:"name"`
	Classes []string `json:"classes"`
}

// appsListing lists the bundled applications, rendered once at
// startup; the registry is immutable, so the bytes never change.
func appsListing() []AppView {
	var views []AppView
	for _, a := range heteropart.Apps() {
		v := AppView{Name: a.Name(), DefaultN: a.DefaultN(), DefaultIters: a.DefaultIters()}
		if p, err := a.Build(heteropart.Variant{}); err == nil {
			if rep, err := heteropart.Analyze(p); err == nil {
				v.Class = rep.Class.String()
				v.NeedsSync = rep.NeedsSync
				v.Best = rep.Best
			}
		}
		views = append(views, v)
	}
	return views
}

// PlatformView is one entry of GET /v1/platforms: a bundled catalog
// platform a request can name in its "platform" field.
type PlatformView struct {
	Name        string   `json:"name"`
	Fingerprint string   `json:"fingerprint"`
	Devices     []string `json:"devices"`
	P2PLinks    int      `json:"p2p_links,omitempty"`
}

// platformsListing lists the platform catalog, rendered once at
// startup.
func platformsListing() []PlatformView {
	var views []PlatformView
	for _, name := range heteropart.PlatformNames() {
		plat, err := heteropart.PlatformByName(name, 0)
		if err != nil {
			continue // a broken catalog entry is a bug caught by tests
		}
		v := PlatformView{
			Name:        name,
			Fingerprint: heteropart.PlatformFingerprint(plat),
			Devices:     []string{plat.Host.String()},
		}
		for _, a := range plat.Accels {
			v.Devices = append(v.Devices, a.String())
		}
		spec, err := heteropart.PlatformSpecByName(name)
		if err == nil {
			v.P2PLinks = len(spec.P2P)
		}
		views = append(views, v)
	}
	return views
}

func strategiesListing() []StrategyView {
	classes := []heteropart.Class{
		heteropart.SKOne, heteropart.SKLoop,
		heteropart.MKSeq, heteropart.MKLoop, heteropart.MKDAG,
	}
	var views []StrategyView
	for _, st := range heteropart.Strategies() {
		v := StrategyView{Name: st.Name(), Classes: []string{}}
		for _, cls := range classes {
			if st.Applicable(cls, false) || st.Applicable(cls, true) {
				v.Classes = append(v.Classes, cls.String())
			}
		}
		views = append(views, v)
	}
	return views
}
