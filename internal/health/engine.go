package health

import (
	"sync"
	"time"
)

// Engine polls registered Monitors on a fixed wall-clock interval from
// one shared goroutine. The goroutine starts lazily with the first
// Register and exits as soon as the registry empties — between
// sessions the process runs no health goroutine at all, which keeps
// the test suite's goroutine-leak gates clean.
type Engine struct {
	interval time.Duration

	mu      sync.Mutex
	mons    map[string]*Monitor
	running bool
	wake    chan struct{}

	// scratch is the tick's monitor list, reused across ticks.
	scratch []*Monitor
}

// NewEngine returns an engine ticking every interval (min 1ms).
func NewEngine(interval time.Duration) *Engine {
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	return &Engine{
		interval: interval,
		mons:     make(map[string]*Monitor),
		wake:     make(chan struct{}, 1),
	}
}

// Register adds m under key (replacing any previous holder) and starts
// the polling goroutine if it is not running.
func (e *Engine) Register(key string, m *Monitor) {
	e.mu.Lock()
	e.mons[key] = m
	if !e.running {
		e.running = true
		go e.loop()
	}
	e.mu.Unlock()
}

// Unregister removes key. It never blocks on an in-flight poll — a
// monitor may be polled once more after Unregister returns, so sources
// must stay safe to sample until they are garbage. When the registry
// empties the polling goroutine is woken to exit promptly.
func (e *Engine) Unregister(key string) {
	e.mu.Lock()
	delete(e.mons, key)
	empty := len(e.mons) == 0
	e.mu.Unlock()
	if empty {
		select {
		case e.wake <- struct{}{}:
		default:
		}
	}
}

func (e *Engine) loop() {
	ticker := time.NewTicker(e.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
		case <-e.wake:
		}
		e.mu.Lock()
		if len(e.mons) == 0 {
			e.running = false
			e.mu.Unlock()
			return
		}
		e.scratch = e.scratch[:0]
		for _, m := range e.mons {
			e.scratch = append(e.scratch, m)
		}
		list := e.scratch
		e.mu.Unlock()
		now := time.Now()
		for _, m := range list {
			m.Poll(now)
		}
	}
}
