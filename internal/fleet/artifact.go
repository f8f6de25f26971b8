package fleet

import (
	"io"

	"tcpls/internal/telemetry"
)

// RunTraced re-runs sc with full protocol tracing armed on one
// session's writer engine and streams the capture to w as a qlog NDJSON
// trace — the artifact a failing campaign leaves behind for
// `tcpls-trace -check`. Campaigns are deterministic, so the re-run
// reproduces the original failure exactly; tracing only the implicated
// session keeps the artifact one-vantage (a single conn-ID namespace)
// and small.
func RunTraced(sc Scenario, session int, w io.Writer) (*Result, error) {
	sc = sc.WithDefaults()
	if session < 0 || session >= sc.Sessions {
		session = 0
	}
	res, events := run(sc, session)
	return res, telemetry.WriteEvents(w, events)
}
