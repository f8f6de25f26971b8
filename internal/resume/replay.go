package resume

import (
	"sync"
	"time"
)

// Replay defaults: two rotating windows of DefaultReplayWindow each, so
// a strike is remembered between one and two windows — longer than any
// plausible 0-RTT flight reordering — with at most 2×DefaultReplayCap
// entries alive.
//
// The capacity is also a rate ceiling: a register accepts at most
// DefaultReplayCap 0-RTT flights per window, about 136/s sustained per
// ticket key store (one per listener unless Config.TicketKeys is
// shared). Flights past it are refused and resume at 1-RTT, with the
// early bytes resent after the handshake: slower, never lost.
const (
	DefaultReplayWindow = 30 * time.Second
	DefaultReplayCap    = 4096
)

// Replay is the bounded anti-replay strike register gating 0-RTT early
// data (the ticket-nonce strike register of RFC 8446 §8's single-use
// model, bounded like QUIC server deployments bound theirs). It keys
// strikes on the ticket's unique nonce: replaying an early-data first
// flight necessarily replays the ticket, hence the nonce.
//
// Memory is bounded two ways: entries older than two windows are gone
// (the windows rotate wholesale, no per-entry timers), and a window that
// reaches its capacity fails safe — further first sightings are REJECTED
// (falling back to 1-RTT) rather than admitted untracked, so an attacker
// flooding the register cannot widen the replay window.
//
// The register alone cannot make 0-RTT single-use: it forgets nonces
// after two windows, and it starts empty on every process restart while
// ticket keys persist. ObserveFresh closes both gaps with the sealed
// issuance stamp: flights whose ticket is older than one window, or was
// issued before this register existed, are rejected outright — so every
// flight the register ever accepts is still remembered whenever a
// replay of it could arrive.
type Replay struct {
	mu       sync.Mutex
	window   time.Duration
	capacity int
	birth    time.Time

	cur      map[[ticketNonceLen]byte]struct{}
	prev     map[[ticketNonceLen]byte]struct{}
	curStart time.Time

	accepted uint64
	rejected uint64
}

// NewReplay builds a strike register with the given rotation window and
// per-window capacity; zero or negative values select the defaults. now
// is the register's birth: ObserveFresh refuses tickets issued before
// it, which is what keeps a recorded 0-RTT flight from replaying into
// the empty register of a restarted process.
func NewReplay(window time.Duration, capacity int, now time.Time) *Replay {
	if window <= 0 {
		window = DefaultReplayWindow
	}
	if capacity <= 0 {
		capacity = DefaultReplayCap
	}
	return &Replay{
		window:   window,
		capacity: capacity,
		// Tickets stamp issuance at millisecond precision; truncate the
		// birth the same way so a ticket sealed by this process a moment
		// after creation never rounds down to "before birth".
		birth: now.Truncate(time.Millisecond),
		cur:   make(map[[ticketNonceLen]byte]struct{}),
		prev:  make(map[[ticketNonceLen]byte]struct{}),
	}
}

// ObserveFresh is the full 0-RTT acceptance check: the ticket's sealed
// issuance stamp must be fresh, and its nonce unseen. Rejections (all
// safe — the flight falls back to 1-RTT):
//
//   - issued before this register's birth: the flight could have been
//     recorded against a previous process whose strikes died with it;
//   - older than one window: the register may already have forgotten an
//     earlier acceptance of the same nonce;
//   - issued in the future: another fleet member's clock is ahead, and
//     a skewed stamp could otherwise outlive the register's memory;
//   - nonce seen within the last one to two windows;
//   - the current window full: fail safe, the caller falls back to
//     1-RTT, which is always correct.
//
// A strike is remembered for at least one full window, so every flight
// ObserveFresh accepts is still remembered at any moment a replay of it
// would itself pass the freshness gate.
func (r *Replay) ObserveFresh(nonce [ticketNonceLen]byte, issued, now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if issued.Before(r.birth) || issued.After(now) || now.Sub(issued) > r.window {
		r.rejected++
		return false
	}
	return r.observeLocked(nonce, now)
}

func (r *Replay) observeLocked(nonce [ticketNonceLen]byte, now time.Time) bool {
	r.rotateLocked(now)
	if _, seen := r.cur[nonce]; seen {
		r.rejected++
		return false
	}
	if _, seen := r.prev[nonce]; seen {
		r.rejected++
		return false
	}
	if len(r.cur) >= r.capacity {
		r.rejected++
		return false
	}
	r.cur[nonce] = struct{}{}
	r.accepted++
	return true
}

// rotateLocked advances the two-window scheme: after one window the
// current set becomes the previous; after two both are empty.
func (r *Replay) rotateLocked(now time.Time) {
	if r.curStart.IsZero() {
		r.curStart = now
		return
	}
	elapsed := now.Sub(r.curStart)
	switch {
	case elapsed >= 2*r.window:
		r.cur = make(map[[ticketNonceLen]byte]struct{})
		r.prev = make(map[[ticketNonceLen]byte]struct{})
		r.curStart = now
	case elapsed >= r.window:
		r.prev = r.cur
		r.cur = make(map[[ticketNonceLen]byte]struct{})
		r.curStart = r.curStart.Add(r.window)
	}
}

// Entries reports how many strikes are currently held (both windows) —
// the number the bounded-memory invariant watches.
func (r *Replay) Entries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cur) + len(r.prev)
}

// Stats reports lifetime accept/reject counts.
func (r *Replay) Stats() (accepted, rejected uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.accepted, r.rejected
}
