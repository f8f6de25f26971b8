package telemetry

import (
	"encoding/json"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Server exposes a registry over HTTP: /metrics in Prometheus text
// format plus the full net/http/pprof surface under /debug/pprof/ —
// enough to watch a chaos run live and grab a goroutine or CPU profile
// from the same port.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr and starts serving reg. The returned server owns the
// listener; Close releases it.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(reg))
	// Explicit pprof routes: importing net/http/pprof for its side
	// effect would pollute http.DefaultServeMux for the whole process.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/tcpls", DebugHandler())
	mux.Handle("/debug/tcpls/health", HealthHandler())
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Handler returns the /metrics exposition handler for reg, for callers
// embedding it in their own mux.
func Handler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
}

// sources is a set of live JSON providers behind one debug page. The
// provider runs on the HTTP handler's goroutine and must return a
// json.Marshal-able snapshot; it is responsible for its own locking.
// Process-wide, like the metrics registry, so every shared telemetry
// server sees every registered session. Keys must be unique per live
// session; the caller unregisters on teardown.
type sources struct {
	field string // the page's top-level JSON field
	mu    sync.Mutex
	fns   map[string]func() any
}

var (
	// debugSources are the per-session state providers of /debug/tcpls,
	// healthSources the diagnosis providers of /debug/tcpls/health.
	debugSources  = sources{field: "sessions", fns: make(map[string]func() any)}
	healthSources = sources{field: "health", fns: make(map[string]func() any)}
)

func (s *sources) register(key string, fn func() any) {
	s.mu.Lock()
	s.fns[key] = fn
	s.mu.Unlock()
}

func (s *sources) unregister(key string) {
	s.mu.Lock()
	delete(s.fns, key)
	s.mu.Unlock()
}

// ServeHTTP renders a JSON object mapping each registered key to its
// snapshot, under the page's field.
func (s *sources) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	fns := maps.Clone(s.fns)
	s.mu.Unlock()
	// Snapshot outside the lock: providers take their own session locks
	// and must not hold up concurrent register/unregister.
	page := make(map[string]any, len(fns))
	for k, fn := range fns {
		page[k] = fn()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{s.field: page})
}

// RegisterDebug installs (or replaces) the live-state provider of
// /debug/tcpls under key; UnregisterDebug removes it.
func RegisterDebug(key string, fn func() any) { debugSources.register(key, fn) }
func UnregisterDebug(key string)              { debugSources.unregister(key) }

// DebugHandler returns the /debug/tcpls handler.
func DebugHandler() http.Handler { return &debugSources }

// RegisterHealth installs (or replaces) the health-status provider of
// /debug/tcpls/health under key; UnregisterHealth removes it.
func RegisterHealth(key string, fn func() any) { healthSources.register(key, fn) }
func UnregisterHealth(key string)              { healthSources.unregister(key) }

// HealthHandler returns the /debug/tcpls/health handler.
func HealthHandler() http.Handler { return &healthSources }

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and closes all live connections.
func (s *Server) Close() error { return s.srv.Close() }
