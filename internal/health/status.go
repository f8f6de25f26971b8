package health

import "sort"

// Status is the JSON shape served on /debug/tcpls/health: the latest
// derived rates, active and recent verdicts, and per-path breakdown.
// Built on the HTTP path, so it allocates freely.
type Status struct {
	Key        string `json:"key"`
	Process    bool   `json:"process,omitempty"`
	IntervalUS int64  `json:"interval_us"`
	Ticks      uint64 `json:"ticks"`
	AtUS       int64  `json:"at_us"`

	Healthy bool `json:"healthy"`

	GoodputTxBps    float64 `json:"goodput_tx_bps"`
	GoodputRxBps    float64 `json:"goodput_rx_bps"`
	RetransmitRatio float64 `json:"retransmit_ratio"`
	ReorderDepth    float64 `json:"reorder_depth"`
	ReorderSlope    float64 `json:"reorder_slope_per_s"`
	AckRTTUS        float64 `json:"ack_rtt_us"`
	MemoryBytes     int64   `json:"memory_bytes"`
	ConnsLive       int     `json:"conns_live"`
	StreamsOpen     int     `json:"streams_open"`

	Active []Verdict `json:"active"`
	Recent []Verdict `json:"recent,omitempty"`

	Paths []PathStatus `json:"paths,omitempty"`

	// Rollup carries entity-specific operator counters (the process
	// monitor surfaces resumption, early-data, ticket-rotation, and
	// admission families here).
	Rollup map[string]float64 `json:"rollup,omitempty"`
}

// PathStatus is one connection's row in a Status.
type PathStatus struct {
	Conn         uint32  `json:"conn"`
	Failed       bool    `json:"failed,omitempty"`
	GoodputTxBps float64 `json:"goodput_tx_bps"`
	SRTTUS       float64 `json:"srtt_us"`
	DeliveryRate float64 `json:"delivery_rate_bps,omitempty"`
	BytesSent    uint64  `json:"bytes_sent"`
}

// Status snapshots the monitor for the JSON endpoint.
func (m *Monitor) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		Key:        m.opt.Key,
		Process:    m.opt.Process,
		IntervalUS: m.opt.Interval.Microseconds(),
		Ticks:      m.ticks,
		Healthy:    m.activeCount == 0,
	}
	if m.havePrev {
		st.AtUS = m.prev.atUS
		st.ConnsLive = m.prev.ConnsLive
		st.StreamsOpen = m.prev.StreamsOpen
		st.MemoryBytes = int64(m.prev.MemoryBytes)
	}
	if m.goodTx != nil { // rings exist from the first Poll on
		if v, ok := m.goodTx.Last(); ok {
			st.GoodputTxBps = v.V
		}
		if v, ok := m.goodRx.Last(); ok {
			st.GoodputRxBps = v.V
		}
		if v, ok := m.retxRatio.Last(); ok {
			st.RetransmitRatio = v.V
		}
		if v, ok := m.reorder.Last(); ok {
			st.ReorderDepth = v.V
		}
		st.ReorderSlope = m.reorder.Slope(m.reorder.Len())
		if v, ok := m.ackRTT.Last(); ok {
			st.AckRTTUS = v.V
		}
	}
	st.Active = make([]Verdict, 0, int(numKinds))
	for k := Kind(1); k < numKinds; k++ {
		t := &m.trips[k]
		if !t.active {
			continue
		}
		st.Active = append(st.Active, Verdict{
			Kind:    k,
			Name:    k.String(),
			Key:     m.opt.Key,
			Raised:  true,
			Conn:    t.conn,
			AtUS:    st.AtUS,
			SinceUS: t.sinceUS,
			Value:   t.value,
			Metric:  seriesName(k),
			Detail:  detail(k, t.conn, t.value),
		})
	}
	st.Recent = append([]Verdict(nil), m.recent...)
	for _, ps := range m.paths {
		row := PathStatus{
			Conn:         ps.last.ID,
			Failed:       ps.last.Failed,
			SRTTUS:       float64(ps.last.SRTTUS),
			DeliveryRate: ps.last.DeliveryRate,
			BytesSent:    ps.last.BytesSent,
		}
		if v, ok := ps.goodTx.Last(); ok {
			row.GoodputTxBps = v.V
		}
		st.Paths = append(st.Paths, row)
	}
	sort.Slice(st.Paths, func(i, j int) bool { return st.Paths[i].Conn < st.Paths[j].Conn })
	if rs, ok := m.src.(RollupSource); ok {
		// Release the lock around the rollup call: the source may take
		// registry locks of its own and needs nothing of ours.
		m.mu.Unlock()
		rollup := rs.HealthRollup()
		m.mu.Lock()
		st.Rollup = rollup
	}
	return st
}
