// Package driver runs the sans-IO TCPLS engine (internal/core) over byte
// transports. It owns what sits between core.Session and a transport:
// the step after every input (failover policy, event drain, flush), the
// pull → write → settle bookkeeping of each connection's output, the
// UserTimeout tick, the connection state machine, the join routine, the
// orderly drain and the reconnect supervisor. The root package adapts it
// to net.Conn and goroutines, internal/simtcpls to simulated TCP.
//
// A Driver has no lock and starts no goroutine: its methods, the Host
// and Transport callbacks it makes and the functions it schedules on the
// Clock all run under the adapter's one lock.
package driver

import (
	"errors"
	"time"

	"tcpls/internal/core"
)

// Clock is the driver's time and randomness: the wall clock in
// production, the simulator's virtual clock under the DES.
type Clock interface {
	Now() time.Time
	// After runs f, under the adapter's lock, once d has passed; stop
	// cancels it.
	After(d time.Duration, f func()) (stop func())
	// Int63n returns a pseudo-random number in [0, n): backoff jitter,
	// seeded under the DES so a campaign replays exactly.
	Int63n(n int64) int64
}

// State is where a connection is in its lifecycle.
type State uint8

const (
	Connecting State = iota // dialing or in the join handshake, not in the engine
	Joining                 // in the engine; the peer has not yet shown it adopted it
	Live                    // in the engine on both ends
	Closing                 // the peer said goodbye (CONN_CLOSE) on it; the transport is open
	Closed                  // the transport ended in order after a goodbye
	Failed                  // the transport broke, or the engine declared it failed
)

// Transport is the adapter's side of one connection.
type Transport interface {
	// Wake: the engine holds output for the connection. The adapter
	// pulls, writes and settles it, now or from its writer.
	Wake()
	// Shut ends the transport: graceful after its last byte (a goodbye)
	// is written — half-close, the peer's end of stream closes it —
	// outright otherwise.
	Shut(graceful bool)
}

// Conn is one transport connection under the driver.
type Conn struct {
	ID     uint32
	State  State
	Addr   string   // where it was dialed: a redial target, or ""
	Cookie [16]byte // the join cookie a client join spends
	// Deadline bounds a join's dial and handshake; zero for none.
	Deadline time.Time
	T        Transport

	entered bool // in the engine
	lent    int  // chunks pulled and not yet settled
	bye     bool // our goodbye is queued on it
	shut    bool
}

// Config is what the driver needs of the session's configuration.
type Config struct {
	Client bool
	// Failover: the session can outlive a connection. Without it losing
	// the last one ends the session.
	Failover bool
	// UserTimeout arms the silence detector, advanced every
	// UserTimeout/4 (at least every 10ms).
	UserTimeout time.Duration
	// Reconnect arms the supervisor on total path loss. Nil: the adapter
	// brings paths back itself and the session only parks.
	Reconnect *ReconnectConfig
}

// Host is the adapter's side of the session.
type Host interface {
	Event(ev core.Event) // every engine event, after the driver's own handling
	Lifecycle(ev Event)  // connection and recovery events
	Candidates() []string
	// Dial starts a join toward c.Addr with c's cookie and ID, bounded by
	// c.Deadline, and reports back with Start or Abort.
	Dial(c *Conn)
	// FlushError: the engine refused to frame queued data. The session
	// keeps running.
	FlushError(err error)
	// End: the session is over, err nil after an orderly goodbye or
	// drain. Called once.
	End(err error)
}

// Driver runs one engine for one endpoint.
type Driver struct {
	Engine  *core.Session
	Cookies [][16]byte // the client's unspent join cookies

	cfg    Config
	clock  Clock
	host   Host
	conns  []*Conn // ascending ID: flushes and failures replay identically
	nextID uint32
	ev     []core.Event // Step's drain buffer, kept across calls
	period time.Duration

	draining, goodbye, ended bool // Drain ran; its goodbyes are queued; the session is over
	stopTick, stopEnd        func()
	sup                      supervisor
}

// New returns a driver for engine; joins get IDs from nextID up.
func New(engine *core.Session, cfg Config, clock Clock, host Host, nextID uint32) *Driver {
	d := &Driver{Engine: engine, cfg: cfg, clock: clock, host: host, nextID: nextID}
	if cfg.UserTimeout > 0 {
		d.period = max(cfg.UserTimeout/4, 10*time.Millisecond)
		d.stopTick = clock.After(d.period, d.tick)
	}
	return d
}

// Conns lists the connections in ascending ID order (the driver's slice:
// read it, do not keep it).
func (d *Driver) Conns() []*Conn { return d.conns }

// Conn returns connection id, or nil.
func (d *Driver) Conn(id uint32) *Conn {
	for _, c := range d.conns {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// Ended reports whether the session is over.
func (d *Driver) Ended() bool { return d.ended }

// Recovering reports whether the supervisor is at work.
func (d *Driver) Recovering() bool { return d.sup.on }

// tick is the UserTimeout detector: a silent connection fails, once.
func (d *Driver) tick() {
	if !d.ended {
		d.Engine.Advance(d.clock.Now())
		d.Step()
		d.stopTick = d.clock.After(d.period, d.tick)
	}
}

// Step runs the engine's failover policy, acts on and forwards every
// event, and flushes. It follows every input to the engine.
func (d *Driver) Step() {
	if d.ended {
		return
	}
	d.Engine.Failover()
	lost := false
	d.ev = d.Engine.AppendEvents(d.ev[:0])
	for _, ev := range d.ev {
		switch ev.Kind {
		case core.EventConnFailed:
			if c := d.Conn(ev.Conn); c != nil && c.State == Closing {
				c.State = Closed
			} else if c != nil {
				c.State = Failed
			}
			if !d.goodbye { // past the goodbyes an ending transport is no outage
				d.emit(Event{Kind: ConnDown, Conn: ev.Conn})
			}
			lost = true
		case core.EventFailoverDone:
			for _, o := range d.conns { // their streams live on ev.Conn now
				if o.State >= Closed {
					d.shut(o, false)
				}
			}
			d.emit(Event{Kind: FailoverDone, Conn: ev.Conn})
		case core.EventConnClosed:
			if c := d.Conn(ev.Conn); c != nil && c.State < Closing {
				c.State = Closing
			}
			d.Engine.FlushAcks() // the peer's goodbye: settle what it sent before ours
		case core.EventNewCookies:
			d.Cookies = append(d.Cookies, ev.Cookies...)
			d.Engine.Note("cookie_received", ev.Conn, 0, 0, len(ev.Cookies))
		case core.EventEchoReply:
			if c := d.Conn(ev.Conn); c != nil && c.State == Joining && ev.Token == adoptProbe|uint64(c.ID) {
				c.State = Live // answered on it: the peer adopted the connection
			}
		}
		d.host.Event(ev)
	}
	if lost {
		d.lost()
	}
	d.Flush()
}

// Flush frames what the engine has queued and wakes each started
// connection with output. A failed connection's output is dropped.
func (d *Driver) Flush() {
	if d.ended {
		return
	}
	if err := d.Engine.Flush(); err != nil && err != core.ErrNotCoupled {
		d.host.FlushError(err)
	}
	for _, c := range d.conns {
		switch {
		case !c.entered || !d.Engine.HasOutgoing(c.ID):
		case d.failed(c):
			d.Pull(c, nil, 0)
		default:
			c.T.Wake()
		}
	}
	d.checkDrain()
}

// Pull appends up to max-len(dst) of c's queued chunks to dst, in the
// order the engine sealed them; every one goes back through Settle. A
// failed connection yields nothing: its output is dropped — once its
// writer holds no chunk, so the written/dropped stamps stay in order.
func (d *Driver) Pull(c *Conn, dst [][]byte, max int) [][]byte {
	if d.ended || !c.entered {
		return dst
	}
	if d.failed(c) {
		for c.lent == 0 {
			b, _ := d.Engine.NextChunk(c.ID)
			if len(b) == 0 {
				break
			}
			d.Engine.NoteWriteDropped(c.ID)
			d.Engine.RecycleOutgoing(b)
		}
		return dst
	}
	for len(dst) < max {
		b, _ := d.Engine.NextChunk(c.ID)
		if len(b) == 0 {
			break
		}
		dst = append(dst, b)
		c.lent++
	}
	return dst
}

// Settle closes the books on chunks pulled for c: the first written
// bytes reached the transport, the rest are dropped, and failover
// replays them byte-identically. A non-nil err fails the connection.
func (d *Driver) Settle(c *Conn, chunks [][]byte, written int64, err error) {
	now := d.clock.Now()
	for _, b := range chunks {
		if written >= int64(len(b)) {
			written -= int64(len(b))
			d.Engine.NoteWritten(c.ID, now)
		} else {
			written = 0
			d.Engine.NoteWriteDropped(c.ID)
		}
		d.Engine.RecycleOutgoing(b) // counted against the engine's pool
	}
	c.lent -= len(chunks)
	if err != nil {
		d.Down(c, false)
	} else {
		d.checkDrain()
	}
}

// failed: the engine failed c. Between two calls into the driver its
// state says so; only a connection closed in order needs the engine asked.
func (d *Driver) failed(c *Conn) bool {
	return c.State == Failed || c.State == Closed && d.Engine.ConnFailed(c.ID)
}

// Receive feeds bytes read from c into the engine and steps. Input on a
// failed connection, or after the end, is dropped.
func (d *Driver) Receive(c *Conn, p []byte) error {
	if d.ended || !c.entered || d.failed(c) {
		return nil
	}
	err := d.Engine.Receive(c.ID, p, d.clock.Now())
	d.Step()
	return err
}

// Down reports that c's transport broke, or reached the peer's end of
// stream (eof). After a goodbye — the peer's, or ours with everything
// sent on c acknowledged — an end of stream is c's orderly end: it
// closes, and can still write what it owes. Anything else fails c in the
// engine, and the failover policy acts.
func (d *Driver) Down(c *Conn, eof bool) {
	switch {
	case d.ended || !c.entered:
	case eof && (c.State == Closing || c.bye && c.State <= Live && !d.Engine.Stranded(c.ID)):
		c.State = Closed
		d.lost()
		d.Flush()
	default:
		d.Engine.ReportConnFailed(c.ID)
		d.Step()
	}
}

// Errors of the join routine.
var (
	ErrNoCookies = errors.New("tcpls: no join cookies left")
	ErrClosed    = errors.New("tcpls: session closed")
)

// Join reserves a join toward addr: a cookie and the next connection ID.
// The adapter runs the handshake, then Start or Abort.
func (d *Driver) Join(addr string) (*Conn, error) {
	if len(d.Cookies) == 0 {
		return nil, ErrNoCookies
	}
	c := d.Add(d.nextID, addr)
	c.Cookie, d.Cookies = d.Cookies[0], d.Cookies[1:]
	d.Engine.Note("cookie_consumed", c.ID, 0, 0, len(d.Cookies))
	return c, nil
}

// Add registers connection id — the initial one, or one the peer
// joined — as Connecting.
func (d *Driver) Add(id uint32, addr string) *Conn {
	c := &Conn{ID: id, Addr: addr}
	i := len(d.conns)
	for i > 0 && d.conns[i-1].ID > id {
		i--
	}
	d.conns = append(d.conns[:i], append([]*Conn{c}, d.conns[i:]...)...)
	d.nextID = max(d.nextID, id+1)
	return c
}

// adoptProbe marks adoption echo tokens apart from Ping's wall-clock ones.
const adoptProbe = 1 << 63

// Start puts c to work over t: into the engine, Live — or Joining, when
// confirm asks the peer to show it adopted the connection — and feeds
// leftover (what the handshake read past its own messages). The failover
// policy resumes whatever is parked; a supervisor at work stands down.
func (d *Driver) Start(c *Conn, t Transport, leftover []byte, confirm bool) error {
	err := ErrClosed
	if !d.ended {
		err = d.Engine.AddConnection(c.ID, d.clock.Now())
	}
	if err != nil {
		d.remove(c)
		return err
	}
	c.entered, c.T, c.State = true, t, Live
	if confirm && d.Engine.SendEcho(c.ID, adoptProbe|uint64(c.ID)) == nil {
		c.State = Joining
	}
	if len(leftover) > 0 {
		err = d.Receive(c, leftover)
	} else {
		d.Step()
	}
	if err != nil {
		d.Fail(err)
		return err
	}
	if d.sup.on && !d.ended {
		d.recovered(c)
	}
	return nil
}

// Abort gives up on a join. A cookie that never reached the peer
// (spent false) goes back to the pool; a started connection fails.
func (d *Driver) Abort(c *Conn, spent bool, err error) {
	if c.entered {
		d.Down(c, false)
	} else {
		d.remove(c)
		if !spent && c.Cookie != ([16]byte{}) {
			d.Cookies = append([][16]byte{c.Cookie}, d.Cookies...)
		}
	}
	if d.sup.dialing == c {
		d.sup.dialing, d.sup.lastErr = nil, err
		d.nextDial()
	}
}

func (d *Driver) remove(c *Conn) {
	for i, o := range d.conns {
		if o == c {
			d.conns = append(d.conns[:i], d.conns[i+1:]...)
			return
		}
	}
}

func (d *Driver) shut(c *Conn, graceful bool) {
	if !c.shut && c.T != nil {
		c.shut = true
		c.T.Shut(graceful)
	}
}

// Drain closes the session in order. Once the output has reached the
// transports, and nothing waits for a failover, every connection gets a
// goodbye and then half-closes. Until all of them have ended the session
// still takes input and adopts joins, so a path that breaks mid-drain
// can be recovered. End(nil) follows, at the latest after timeout.
func (d *Driver) Drain(timeout time.Duration) {
	if !d.ended && !d.draining {
		d.draining = true
		d.stopEnd = d.clock.After(timeout, func() { d.end(nil) })
		d.Flush()
	}
}

// Quiet reports whether a drain has put on the transports all it can —
// bytes waiting for a failover wait on — or the session is over.
func (d *Driver) Quiet() bool {
	return d.ended || d.draining && !d.busy() && (d.goodbye || d.stranded())
}

// stranded: records on a broken connection wait for a failover, so the
// goodbyes — or the drain's end — wait too.
func (d *Driver) stranded() bool {
	for _, c := range d.conns {
		if d.cfg.Failover && c.State == Failed && d.Engine.Stranded(c.ID) {
			return true
		}
	}
	return false
}

// busy: some connection still has output to write, or the engine holds
// bytes back until acknowledgments open their send window.
func (d *Driver) busy() bool {
	for _, c := range d.conns {
		if c.lent > 0 || c.entered && !c.shut && !d.failed(c) && d.Engine.HasOutgoing(c.ID) {
			return true
		}
	}
	return d.Engine.Parked()
}

// checkDrain moves a drain along: the goodbyes once the output is out,
// each connection's half-close once its goodbye is written.
func (d *Driver) checkDrain() {
	switch {
	case !d.draining || d.ended:
	case !d.goodbye:
		if !d.busy() && !d.stranded() {
			d.goodbye = true
			for _, c := range d.conns {
				if c.State == Joining || c.State == Live {
					d.Engine.CloseConnection(c.ID)
				}
				c.bye = c.State <= Closing
			}
			d.Flush()
		}
	default:
		for _, c := range d.conns {
			if c.lent > 0 || d.Engine.HasOutgoing(c.ID) {
				continue
			}
			switch {
			case c.State == Closed:
				d.shut(c, false) // its peer's end of stream is read: nothing left
			case c.State == Closing, c.bye && c.State <= Live:
				d.shut(c, true)
			}
		}
		d.lost()
	}
}

// Fail ends the session at once with err (nil: closed without a drain).
func (d *Driver) Fail(err error) { d.end(err) }

func (d *Driver) end(err error) {
	if d.ended {
		return
	}
	d.ended = true
	for _, stop := range []func(){d.stopTick, d.stopEnd, d.sup.stop} {
		if stop != nil {
			stop()
		}
	}
	d.sup = supervisor{}
	for _, c := range d.conns {
		d.shut(c, false)
	}
	d.host.End(err)
}

func (d *Driver) emit(ev Event) {
	ev.Time = d.clock.Now()
	d.host.Lifecycle(ev)
}
