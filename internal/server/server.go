package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"tcpls"
	"tcpls/internal/telemetry"
)

// Handler serves one accepted session. It runs on its own goroutine;
// returning retires the session (the Server closes it and removes it
// from the registry). Handlers should return when
// Session.AcceptStream fails — that is how a drained or dead session
// announces itself.
type Handler func(*tcpls.Session)

// Config configures a Server.
type Config struct {
	// TCPLS is the transport configuration handed to the listener
	// (certificate, failover, flow-control caps, telemetry...). The
	// Server clones it and installs its own Admission controller; a
	// caller-provided Admission hook is overridden.
	TCPLS *tcpls.Config
	// Limits tunes the admission controller (zero value: no limits).
	Limits Limits
	// MemoryBudget caps the process-wide buffered-session memory
	// rollup; past 90% of it new sessions are shed with
	// ReasonMemoryBudget. 0 disables.
	MemoryBudget int64
	// SessionNominalBytes is each session's floor charge against the
	// budget (default 256 KiB), covering the rollup lag for brand-new
	// sessions whose buffers are still empty.
	SessionNominalBytes int64
	// RollupInterval is the registry memory-rollup period (default 1s).
	RollupInterval time.Duration
	// Shards is the registry stripe count (default 64, rounded up to a
	// power of two).
	Shards int
	// Handler serves each session (required by Serve).
	Handler Handler
	// Name labels this server's metrics (tcpls_server_* listener
	// label) and its /debug/tcpls entry. Default "server".
	Name string
	// MetricsRegistry overrides the process-default telemetry registry.
	MetricsRegistry *telemetry.Registry

	// TicketKeyFile persists the resumption ticket keys: sessions
	// resumed against a restarted server keep working as long as the
	// file (and passphrase) survive. The file is created on first use
	// and encrypted under TicketKeyPassphrase. Empty leaves the
	// transport's default (fresh in-memory key per listener). Ignored
	// when Config.TCPLS already carries a TicketKeys store.
	TicketKeyFile string
	// TicketKeyPassphrase encrypts TicketKeyFile (required with it).
	TicketKeyPassphrase []byte
	// TicketRotate rotates the ticket key on this period while the
	// server runs: new tickets seal under the fresh generation, the
	// previous generation stays accepted, and accepted old-generation
	// tickets are reissued on use. Zero disables timed rotation.
	TicketRotate time.Duration
}

// Server runs a TCPLS accept loop for thousands of concurrent
// sessions: admission control at the accept edge, a lock-striped
// session registry with a process memory budget, per-session handler
// goroutines, and graceful drain via Shutdown.
type Server struct {
	cfg    Config
	reg    *Registry
	budget *Budget
	ctrl   *Controller
	sm     *telemetry.ServerMetrics

	handlers handlerGroup // one per live session handler

	mu         sync.Mutex
	ln         *tcpls.Listener
	keys       *tcpls.TicketKeyStore // opened from TicketKeyFile, lazily
	serving    bool
	serveExit  chan struct{} // closed when Serve's accept loop returns
	rollupStop chan struct{}
	rollupDone chan struct{}
	rotateStop chan struct{}
	rotateDone chan struct{}
}

// New builds a Server. Listen, then Serve, starts it.
func New(cfg Config) *Server {
	if cfg.Name == "" {
		cfg.Name = "server"
	}
	if cfg.RollupInterval <= 0 {
		cfg.RollupInterval = time.Second
	}
	reg := NewRegistry(cfg.Shards)
	budget := NewBudget(reg, cfg.MemoryBudget, cfg.SessionNominalBytes)
	mreg := cfg.MetricsRegistry
	if mreg == nil {
		mreg = telemetry.Default()
	}
	sm := telemetry.ServerFamiliesOn(mreg).Server(cfg.Name)
	s := &Server{
		cfg:    cfg,
		reg:    reg,
		budget: budget,
		sm:     sm,
	}
	s.ctrl = NewController(cfg.Limits, reg, budget, sm)
	return s
}

// Registry exposes the session registry (tests, debug).
func (s *Server) Registry() *Registry { return s.reg }

// Admission exposes the controller, for callers that build their own
// tcpls.Listener: set it as Config.Admission before NewListener.
func (s *Server) Admission() *Controller { return s.ctrl }

// Listen opens a TCPLS listener on addr with the Server's admission
// controller installed, ready to hand to Serve. Callers binding port 0
// use it to learn the resolved address before serving.
func (s *Server) Listen(network, addr string) (*tcpls.Listener, error) {
	tcfg := &tcpls.Config{}
	if s.cfg.TCPLS != nil {
		c := *s.cfg.TCPLS
		tcfg = &c
	}
	tcfg.Admission = s.ctrl
	if tcfg.TicketKeys == nil && s.cfg.TicketKeyFile != "" {
		ks, err := s.TicketKeys()
		if err != nil {
			return nil, err
		}
		tcfg.TicketKeys = ks
	}
	return tcpls.Listen(network, addr, tcfg)
}

// TicketKeys opens (once) and returns the persistent ticket key store
// configured via TicketKeyFile, or nil when none is configured. The
// open is lazy so New stays infallible; Listen surfaces the error.
func (s *Server) TicketKeys() (*tcpls.TicketKeyStore, error) {
	if s.cfg.TicketKeyFile == "" {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.keys != nil {
		return s.keys, nil
	}
	ks, err := tcpls.OpenTicketKeyStore(s.cfg.TicketKeyFile, s.cfg.TicketKeyPassphrase)
	if err != nil {
		return nil, err
	}
	s.keys = ks
	return ks, nil
}

// Serve accepts sessions from ln until the listener closes (Shutdown,
// or an external Close). Each session runs Config.Handler on its own
// goroutine. Serve returns nil after a Shutdown-initiated close, the
// listener error otherwise. The listener should have been built with
// this Server's Admission controller — Listen does that — otherwise
// sessions are served but never gated.
func (s *Server) Serve(ln *tcpls.Listener) error {
	s.mu.Lock()
	if s.serving {
		s.mu.Unlock()
		return errors.New("tcpls/server: Serve called twice")
	}
	s.serving = true
	s.ln = ln
	s.serveExit = make(chan struct{})
	s.rollupStop = make(chan struct{})
	s.rollupDone = make(chan struct{})
	exit := s.serveExit
	go s.rollupLoop(s.rollupStop, s.rollupDone)
	if s.cfg.TicketRotate > 0 && s.keys != nil {
		s.rotateStop = make(chan struct{})
		s.rotateDone = make(chan struct{})
		go s.rotateLoop(s.keys, s.rotateStop, s.rotateDone)
	}
	s.mu.Unlock()
	// Closing exit tells Shutdown every accepted session is wg-tracked,
	// so its wg.Wait cannot race a late wg.Add.
	defer close(exit)

	debugKey := "server:" + s.cfg.Name
	telemetry.RegisterDebug(debugKey, s.debugState)
	defer telemetry.UnregisterDebug(debugKey)

	for {
		sess, err := ln.Accept()
		if err != nil {
			if s.ctrl.Draining() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.handlers.add()
		go s.runSession(sess)
	}
}

// runSession registers one accepted session, runs the handler, and
// retires the session when the handler returns.
func (s *Server) runSession(sess *tcpls.Session) {
	defer s.handlers.done()
	defer s.ctrl.ReleaseSession()
	id := sess.ID()
	// Plain-TLS sessions (DisableTCPLS) share the zero SessID; they are
	// served but only the first is registry-tracked. TCPLS session IDs
	// are 16 random bytes — no collisions in practice.
	tracked := s.reg.Add(id, sess)
	s.sm.Accepted.Inc()
	s.sm.Sessions.Set(int64(s.reg.Len()))
	defer func() {
		sess.Close()
		if tracked {
			s.reg.Remove(id)
		}
		s.sm.Drained.Inc()
		s.sm.Sessions.Set(int64(s.reg.Len()))
	}()
	if h := s.cfg.Handler; h != nil {
		h(sess)
	} else {
		// No handler: hold the session open until it dies.
		<-sess.Done()
	}
}

// rollupLoop refreshes the registry's memory rollup on the configured
// interval, feeding the budget and the tcpls_server_memory_bytes gauge.
func (s *Server) rollupLoop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(s.cfg.RollupInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.sm.MemoryBytes.Set(s.reg.Rollup())
			s.sm.Sessions.Set(int64(s.reg.Len()))
		case <-stop:
			return
		}
	}
}

// rotateLoop rotates the persistent ticket key on the configured
// period. Rotation is cheap (one random key, one file rewrite); a
// failed rewrite leaves the in-memory generation advanced, so freshly
// issued tickets still age out on schedule — but the on-disk file is
// now stale, and a restart would strand every ticket sealed since the
// last good write. That drift is surfaced through the
// tcpls_ticket_rotate_failures_total counter so operators notice
// before a restart turns it into mass resumption failure.
func (s *Server) rotateLoop(ks *tcpls.TicketKeyStore, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(s.cfg.TicketRotate)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := ks.Rotate(); err != nil {
				s.sm.TicketRotateFailure.Inc()
			}
		case <-stop:
			return
		}
	}
}

// Shutdown drains the server: stop admitting (new connections and
// sessions reject with ReasonDraining), wait for every session
// handler to finish, then close the listener. If ctx expires first,
// all registered sessions are force-closed — handlers observe the
// close and return — and Shutdown still waits for them before
// returning ctx's error. Established sessions' joins stay admitted
// (and the listener stays open) during the drain so failover keeps
// working until the last handler returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ctrl.SetDraining(true)
	s.mu.Lock()
	ln := s.ln
	exit := s.serveExit
	rollupStop, rollupDone := s.rollupStop, s.rollupDone
	rotateStop, rotateDone := s.rotateStop, s.rotateDone
	s.ln = nil
	s.rollupStop = nil
	s.rotateStop = nil
	s.mu.Unlock()

	// The listener stays open through the drain: new connections are
	// rejected by admission (observable as draining rejects, a fast
	// close instead of connection-refused), while joins keep landing so
	// draining sessions retain failover until the end.
	var err error
	select {
	case <-s.handlers.idle():
	case <-ctx.Done():
		err = ctx.Err()
		s.reg.CloseAll()
		<-s.handlers.idle()
	}

	if ln != nil {
		ln.Close()
	}
	if exit != nil {
		// Serve drains handshakes that completed before the close; wait
		// for it so no handlers.add races the final reap.
		<-exit
	}
	// Stragglers: sessions accepted between the handler wait and the
	// listener close (their handshakes predate the drain gate). Close
	// them and reap their handlers.
	s.reg.CloseAll()
	<-s.handlers.idle()

	if rollupStop != nil {
		close(rollupStop)
		<-rollupDone
	}
	if rotateStop != nil {
		close(rotateStop)
		<-rotateDone
	}
	return err
}

// handlerGroup counts live session-handler goroutines. A plain
// sync.WaitGroup cannot serve here: sessions are still accepted while
// Shutdown drains (the listener stays open for joins/failover), so an
// Add from a zero count would race Wait — the exact misuse
// WaitGroup's race annotations reject. This variant serializes both
// under one mutex and hands waiters a channel instead.
type handlerGroup struct {
	mu   sync.Mutex
	n    int
	zero chan struct{} // lazily made; closed and cleared when n hits 0
}

func (g *handlerGroup) add() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

func (g *handlerGroup) done() {
	g.mu.Lock()
	g.n--
	if g.n == 0 && g.zero != nil {
		close(g.zero)
		g.zero = nil
	}
	g.mu.Unlock()
}

// idle returns a channel that is closed once the live-handler count
// reaches zero; if it already is, the channel comes back closed. A
// handler admitted after the count hits zero does not reopen channels
// already handed out — callers re-call idle to observe it.
func (g *handlerGroup) idle() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.n == 0 {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	if g.zero == nil {
		g.zero = make(chan struct{})
	}
	return g.zero
}

// debugState snapshots the server for /debug/tcpls.
func (s *Server) debugState() any {
	used := s.budget.Used()
	return map[string]any{
		"sessions":                     s.reg.Len(),
		"memory_bytes":                 s.reg.MemoryBytes(),
		"budget_used_bytes":            used,
		"budget_limit_bytes":           s.budget.Limit(),
		"budget_hot":                   s.budget.Hot(),
		"draining":                     s.ctrl.Draining(),
		"accepted_total":               s.sm.Accepted.Load(),
		"drained_total":                s.sm.Drained.Load(),
		"handshakes_inflight":          s.sm.Handshakes.Load(),
		"ticket_rotate_failures_total": s.sm.TicketRotateFailure.Load(),
	}
}
