package tcpls

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"tcpls/internal/health"
	"tcpls/internal/telemetry"
)

// TestSnapshotCountsWithTelemetryDisabled: live connections and open
// streams are engine state, like the byte gauges beside them, so a
// session with the metrics layer off still reports them. They used to
// come from telemetry gauges and read 0 here.
func TestSnapshotCountsWithTelemetryDisabled(t *testing.T) {
	off := TelemetryConfig{Disabled: true}
	srv := startChaosServer(t, &Config{EnableFailover: true, NumCookies: 4, Telemetry: off}, echoHandler)
	sess, _ := twoPathSession(t, srv, &Config{ServerName: "test.server", EnableFailover: true, Telemetry: off})
	defer sess.Close()
	st, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := st.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}
	if snap := sess.Snapshot(); snap.ConnsLive != 2 || snap.StreamsOpen < 1 {
		t.Fatalf("two joined paths, one stream: ConnsLive %d, StreamsOpen %d", snap.ConnsLive, snap.StreamsOpen)
	}
	killPath(t, sess, 0)
	if snap := sess.Snapshot(); snap.ConnsLive != 1 || !snap.Conns[0].Failed {
		t.Fatalf("after conn 0 failed: ConnsLive %d, conns %+v", snap.ConnsLive, snap.Conns)
	}
}

// TestSnapshotOneTruth: every read-out of a session is the one Snapshot.
// On a two-path coupled transfer with a forced failover in the middle,
// its tail still unacknowledged and an unread reply parked in a receive
// buffer, the snapshot agrees
// with Stats and MemoryFootprint, comes back unchanged from the
// /debug/tcpls page, is what the health monitor saw on its tick, and
// gives every one of the session's /metrics series its value.
func TestSnapshotOneTruth(t *testing.T) {
	const half, replyLen = 512 << 10, 4096
	// The shared health engine is parked an hour away: the test ticks
	// the session's monitor by hand.
	parked := HealthConfig{Interval: time.Hour}
	srv := startChaosServer(t, &Config{EnableFailover: true, AckPeriod: 4, NumCookies: 4, Health: parked},
		func(sess *Session) {
			st, err := sess.AcceptStream(context.Background())
			if err != nil {
				return
			}
			if _, err := sess.AcceptStream(context.Background()); err != nil {
				return
			}
			buf := make([]byte, 64<<10)
			for got := 0; got < 2*half; {
				n, err := sess.ReadCoupled(buf)
				if err != nil {
					return
				}
				got += n
			}
			st.Write(make([]byte, replyLen))
		})
	sess, conn2 := twoPathSession(t, srv, &Config{
		ServerName: "test.server", EnableFailover: true, AckPeriod: 4, Health: parked,
	})
	defer sess.Close()
	st1, err := sess.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := sess.OpenStreamOn(conn2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Couple(st1, st2); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, half)
	if _, err := sess.WriteCoupled(data); err != nil {
		t.Fatal(err)
	}
	killPath(t, sess, 0)
	if _, err := sess.WriteCoupled(data); err != nil {
		t.Fatal(err)
	}

	// Settled: the server has it all and its reply sits unread here.
	deadline := time.Now().Add(10 * time.Second)
	for sess.Snapshot().BytesReceived != replyLen {
		if time.Now().After(deadline) {
			t.Fatalf("the %d-byte reply never arrived: %+v", replyLen, sess.Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	sess.mu.Lock()
	mon, key := sess.healthMon, sess.debugKey
	sess.mu.Unlock()
	mon.Poll(time.Now()) // the first tick only sets the baseline
	ts := httptest.NewServer(DebugHandler())
	defer ts.Close()

	// Each other read-out is taken between two snapshots that agree, so
	// a straggling ack cannot pass for a disagreement.
	var snap, page Snapshot
	var stats Stats
	var footprint int
	var st health.Status
	var scraped map[string]float64
	for settled := false; !settled; {
		if time.Now().After(deadline) {
			t.Fatal("snapshot never held still across the read-outs")
		}
		snap = sess.Snapshot()
		stats, footprint = sess.Stats(), sess.MemoryFootprint()
		page = debugPageEntry(t, ts.URL, key)
		mon.Poll(time.Now())
		st = mon.Status()
		scraped = telemetry.Default().Gather()
		settled = reflect.DeepEqual(snap, sess.Snapshot())
	}

	if snap.Stats != stats || snap.MemoryBytes != footprint || footprint != snap.RetransmitBytes+replyLen {
		t.Errorf("snapshot says %+v and %d bytes held; Stats() %+v, MemoryFootprint() %d",
			snap.Stats, snap.MemoryBytes, stats, footprint)
	}
	if !reflect.DeepEqual(page, snap) {
		t.Errorf("/debug/tcpls decodes to\n%+v\nSnapshot() is\n%+v", page, snap)
	}
	if st.ConnsLive != snap.ConnsLive || st.StreamsOpen != snap.StreamsOpen ||
		st.MemoryBytes != int64(snap.MemoryBytes) || len(st.Paths) != len(snap.Conns) {
		t.Errorf("health tick saw %d live conns, %d streams, %d bytes, %d paths; the snapshot has %d, %d, %d, %d",
			st.ConnsLive, st.StreamsOpen, st.MemoryBytes, len(st.Paths),
			snap.ConnsLive, snap.StreamsOpen, snap.MemoryBytes, len(snap.Conns))
	}
	for i, p := range st.Paths {
		c := snap.Conns[i]
		if p.Conn != c.ID || p.Failed != c.Failed || p.BytesSent != c.BytesSent ||
			p.SRTTUS != float64(c.SRTTUS) || p.DeliveryRate != c.DeliveryRate {
			t.Errorf("health path %+v, snapshot conn %+v", p, c)
		}
	}

	// /metrics: the session's series are exactly the snapshot's fields.
	want := metricsOf(&snap, sessLabel(sess.ID()), "client")
	for series, v := range scraped {
		if strings.Contains(series, want.prefix) {
			if w, ok := want.values[series]; !ok || w != v {
				t.Errorf("/metrics %s = %v; the snapshot gives %v (present %v)", series, v, w, ok)
			}
		}
	}
	for series := range want.values {
		if _, ok := scraped[series]; !ok {
			t.Errorf("/metrics lacks %s", series)
		}
	}

	// And the value itself tells the story of the run.
	if snap.Role != "client" || snap.Closed || snap.ConnsLive != 1 || snap.Failovers != 1 ||
		len(snap.Conns) != 2 || !snap.Conns[0].Failed || snap.Conns[1].Failed {
		t.Errorf("after one failover off conn 0: %+v", snap)
	}
	var perConn uint64
	for _, c := range snap.Conns {
		perConn += c.BytesSent
	}
	if snap.BytesSent != 2*half || perConn != snap.BytesSent {
		t.Errorf("sent %d bytes, conns carried %d", snap.BytesSent, perConn)
	}
	buffered := 0
	for _, row := range snap.Streams {
		buffered += row.RecvBuffered
		if row.Conn != conn2 || row.Parked || !row.Coupled {
			t.Errorf("stream %d: %+v, want coupled and homed on the surviving conn %d", row.ID, row, conn2)
		}
	}
	if len(snap.Streams) != 2 || buffered != replyLen {
		t.Errorf("%d stream rows holding %d unread bytes, want 2 and %d", len(snap.Streams), buffered, replyLen)
	}
}

// debugPageEntry fetches the /debug/tcpls page at url and decodes the
// entry under key back into the type it was rendered from.
func debugPageEntry(t *testing.T, url, key string) Snapshot {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page struct {
		Sessions map[string]json.RawMessage `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(page.Sessions[key], &snap); err != nil {
		t.Fatalf("/debug/tcpls entry %q: %v", key, err)
	}
	return snap
}

// sessionSeries is what /metrics should show of one end of a session:
// its series, as Registry.Gather names them, and their values.
type sessionSeries struct {
	prefix string // the label set every one of them starts with
	values map[string]float64
}

// metricsOf spells out, field by field, the tcpls_* series the
// Snapshot snap of one end of a session gives.
func metricsOf(snap *Snapshot, sess, role string) sessionSeries {
	base := fmt.Sprintf("{sess=%q,role=%q", sess, role)
	m := sessionSeries{prefix: base, values: map[string]float64{}}
	put := func(name, labels string, v uint64) { m.values[name+base+labels+"}"] = float64(v) }
	for name, v := range map[string]uint64{
		"tcpls_conn_failures_total":      snap.ConnFailures,
		"tcpls_failovers_total":          snap.Failovers,
		"tcpls_failover_cascades_total":  snap.FailoverCascades,
		"tcpls_reconnect_attempts_total": snap.ReconnectAttempts,
		"tcpls_reconnects_total":         snap.Reconnects,
		"tcpls_recovery_failures_total":  snap.RecoveryFailures,
		"tcpls_sched_invalid_total":      snap.SchedInvalid,
		"tcpls_trace_events_total":       snap.TraceEvents,
		"tcpls_trace_dropped_total":      snap.TraceDropped,
		"tcpls_flowctl_limit_total":      snap.FlowctlLimits,
		"tcpls_ack_solicited_total":      snap.AckSolicits,
		"tcpls_reorder_heap_depth":       uint64(snap.ReorderDepth),
		"tcpls_reorder_bytes":            uint64(snap.ReorderBytes),
		"tcpls_retransmit_bytes":         uint64(snap.RetransmitBytes),
		"tcpls_conns_open":               uint64(snap.ConnsLive),
		"tcpls_streams_open":             uint64(snap.StreamsOpen),
	} {
		put(name, "", v)
	}
	for name, h := range map[string]*telemetry.Hist{
		"tcpls_ack_rtt_seconds":      &snap.AckRTT,
		"tcpls_record_payload_bytes": &snap.RecordSize,
	} {
		m.values[name+base+"}_count"] = float64(h.Count())
		m.values[name+base+"}_sum"] = h.Sum
	}
	for _, c := range snap.Conns {
		conn := fmt.Sprintf(",conn=\"%d\"", c.ID)
		put("tcpls_records_sent_total", conn, c.RecordsSent)
		put("tcpls_records_received_total", conn, c.RecordsReceived)
		put("tcpls_bytes_sent_total", conn, c.BytesSent)
		put("tcpls_bytes_received_total", conn, c.BytesReceived)
		put("tcpls_retransmits_total", conn, c.Retransmits)
		put("tcpls_acks_sent_total", conn, c.AcksSent)
		put("tcpls_acks_received_total", conn, c.AcksReceived)
		put("tcpls_dup_records_dropped_total", conn, c.DupRecordsDropped)
		put("tcpls_failed_decrypts_total", conn, c.FailedDecrypts)
	}
	for _, st := range snap.Streams {
		stream := fmt.Sprintf(",stream=\"%d\"", st.ID)
		put("tcpls_stream_bytes_sent_total", stream, st.BytesSent)
		put("tcpls_stream_bytes_received_total", stream, st.BytesReceived)
	}
	for policy, n := range snap.SchedPicks {
		put("tcpls_sched_picks_total", fmt.Sprintf(",policy=%q", policy), n)
	}
	return m
}
