package health

import "tcpls/internal/telemetry"

// Families bundles the tcpls_health_* metric families. Handles are
// resolved once per monitored entity, at its first tick, so the
// sampler's hot path is a few atomic stores.
type Families struct {
	ticks    *telemetry.CounterVec
	verdicts *telemetry.CounterVec
	active   *telemetry.GaugeVec
	goodput  *telemetry.GaugeVec
	retx     *telemetry.GaugeVec
	ackRTT   *telemetry.GaugeVec
	memory   *telemetry.GaugeVec
}

// NewFamilies registers (or re-resolves) the health families on r.
func NewFamilies(r *telemetry.Registry) *Families {
	return &Families{
		ticks: r.CounterVec("tcpls_health_ticks_total",
			"Health sampler ticks completed.", "key"),
		verdicts: r.CounterVec("tcpls_health_verdicts_total",
			"Health verdict raises by kind.", "key", "kind"),
		active: r.GaugeVec("tcpls_health_active",
			"1 while the verdict kind is currently raised.", "key", "kind"),
		goodput: r.GaugeVec("tcpls_health_goodput_bps",
			"Derived goodput over the last sampler tick, bytes/s.", "key", "dir"),
		retx: r.GaugeVec("tcpls_health_retransmit_permille",
			"Retransmits per thousand sent records over the last tick.", "key"),
		ackRTT: r.GaugeVec("tcpls_health_ack_rtt_us",
			"Windowed mean record-acknowledgment RTT, microseconds.", "key"),
		memory: r.GaugeVec("tcpls_health_memory_bytes",
			"Buffered memory as sampled by the health monitor.", "key"),
	}
}

// Metrics is one entity's pre-resolved handle block.
type Metrics struct {
	Ticks             *telemetry.Counter
	GoodputTx         *telemetry.Gauge
	GoodputRx         *telemetry.Gauge
	RetxRatioPermille *telemetry.Gauge
	AckRTTUS          *telemetry.Gauge
	MemoryBytes       *telemetry.Gauge
	Verdicts          [numKinds]*telemetry.Counter
	Active            [numKinds]*telemetry.Gauge
}

// Entity resolves the handle block for key. With a nil owner the
// series are permanent children of the families (the process monitor);
// with a session's registry entry as owner they live in it and leave
// /metrics when it detaches.
func (f *Families) Entity(key string, owner *telemetry.SessionMetrics) *Metrics {
	counter := func(v *telemetry.CounterVec, values ...string) *telemetry.Counter {
		if owner == nil {
			return v.With(values...)
		}
		return owner.Counter(v, values...)
	}
	gauge := func(v *telemetry.GaugeVec, values ...string) *telemetry.Gauge {
		if owner == nil {
			return v.With(values...)
		}
		return owner.Gauge(v, values...)
	}
	m := &Metrics{
		Ticks:             counter(f.ticks, key),
		GoodputTx:         gauge(f.goodput, key, "tx"),
		GoodputRx:         gauge(f.goodput, key, "rx"),
		RetxRatioPermille: gauge(f.retx, key),
		AckRTTUS:          gauge(f.ackRTT, key),
		MemoryBytes:       gauge(f.memory, key),
	}
	for k := Kind(0); k < numKinds; k++ {
		m.Verdicts[k] = counter(f.verdicts, key, k.String())
		m.Active[k] = gauge(f.active, key, k.String())
	}
	return m
}
