package driver

import (
	"time"

	"tcpls/internal/core"
	"tcpls/internal/handshake"
)

// Nop is a Host, a Transport and a Clock that do nothing: for engines a
// caller pumps by hand (a benchmark pipeline, a test), where nothing is
// dialed, woken or timed. Its clock stands still at the Unix epoch.
type Nop struct{}

func (Nop) Wake()                                     {}
func (Nop) Shut(bool)                                 {}
func (Nop) Now() time.Time                            { return time.Unix(0, 0) }
func (Nop) After(time.Duration, func()) (stop func()) { return func() {} }
func (Nop) Int63n(int64) int64                        { return 0 }
func (Nop) Event(core.Event)                          {}
func (Nop) Lifecycle(Event)                           {}
func (Nop) Candidates() []string                      { return nil }
func (Nop) Dial(*Conn)                                {}
func (Nop) Connected(*Conn, *handshake.Result)        {}
func (Nop) FlushError(error)                          {}
func (Nop) End(error)                                 {}
