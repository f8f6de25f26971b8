package health

// RuleConfig sets the diagnosis thresholds and hysteresis windows. The
// zero value means every default; fields are counted in ticks of the
// monitor's sampling interval, so wall-clock sensitivity scales with
// the tick. Defaults are chosen for the 1s production tick: a stall
// verdict after 3s of zero progress, cleared after 2s of recovery.
type RuleConfig struct {
	// StallTicks consecutive ticks with unacknowledged data on a live
	// connection and zero ack/receive progress raise StallSuspected;
	// StallClearTicks ticks of progress (or drained data) clear it.
	StallTicks      int
	StallClearTicks int
	// StallMinOutstanding is the minimum unacknowledged byte count for
	// a stall to be suspected (sub-record dribbles don't count).
	StallMinOutstanding int

	// StormRatio is the retransmit-to-sent record fraction that counts
	// a tick as storming, once at least StormMinRetx retransmits
	// happened in the tick. StormTicks/StormClearTicks hysteresis.
	StormRatio      float64
	StormMinRetx    uint64
	StormTicks      int
	StormClearTicks int

	// MemGrowthTicks is the monotone-growth observation window;
	// MemGrowthFactor the minimum growth over it; MemGrowthFloor the
	// absolute byte level below which growth is never diagnosed.
	MemGrowthTicks      int
	MemGrowthFactor     float64
	MemGrowthFloor      int64
	MemGrowthClearTicks int

	// AsymRatio is the goodput ratio between the busiest and quietest
	// live data-carrying paths that counts a tick as asymmetric; the
	// busiest path must also move at least AsymMinBps.
	AsymRatio      float64
	AsymMinBps     float64
	AsymTicks      int
	AsymClearTicks int

	// ResumeFailFrac is the rejected fraction of resumption attempts
	// (per tick, given at least ResumeMinAttempts) that counts as a
	// spike. Process monitors only.
	ResumeFailFrac    float64
	ResumeMinAttempts uint64
	ResumeTicks       int
	ResumeClearTicks  int

	// AdmitTicks consecutive ticks with admission rejections raise
	// AdmissionPressure. Process monitors only.
	AdmitTicks      int
	AdmitClearTicks int
}

// withDefaults returns c with zero fields replaced by the defaults.
func (c RuleConfig) withDefaults() RuleConfig {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.StallTicks, 3)
	def(&c.StallClearTicks, 2)
	def(&c.StallMinOutstanding, 1)
	if c.StormRatio == 0 {
		c.StormRatio = 0.3
	}
	if c.StormMinRetx == 0 {
		c.StormMinRetx = 8
	}
	def(&c.StormTicks, 2)
	def(&c.StormClearTicks, 2)
	def(&c.MemGrowthTicks, 10)
	if c.MemGrowthFactor == 0 {
		c.MemGrowthFactor = 2.0
	}
	if c.MemGrowthFloor == 0 {
		c.MemGrowthFloor = 4 << 20
	}
	def(&c.MemGrowthClearTicks, 2)
	if c.AsymRatio == 0 {
		c.AsymRatio = 20
	}
	if c.AsymMinBps == 0 {
		c.AsymMinBps = 64 << 10
	}
	def(&c.AsymTicks, 3)
	def(&c.AsymClearTicks, 3)
	if c.ResumeFailFrac == 0 {
		c.ResumeFailFrac = 0.5
	}
	if c.ResumeMinAttempts == 0 {
		c.ResumeMinAttempts = 4
	}
	def(&c.ResumeTicks, 2)
	def(&c.ResumeClearTicks, 2)
	def(&c.AdmitTicks, 3)
	def(&c.AdmitClearTicks, 2)
	return c
}

// trip is one rule's hysteresis state machine: `need` consecutive bad
// ticks raise, `clear` consecutive good ticks clear. update returns
// which transition (if either) happened this tick.
type trip struct {
	active bool
	bad    int
	good   int
	// sinceUS stamps the raise time while active.
	sinceUS int64
	// conn/value freeze the implicated connection and headline scalar
	// at raise time.
	conn  uint32
	value float64
}

func (t *trip) update(bad bool, atUS int64, need, clear int) (raised, cleared bool) {
	if bad {
		t.good = 0
		t.bad++
		if !t.active && t.bad >= need {
			t.active = true
			t.sinceUS = atUS
			return true, false
		}
		return false, false
	}
	t.bad = 0
	if !t.active {
		return false, false
	}
	t.good++
	if t.good >= clear {
		t.active = false
		t.good = 0
		return false, true
	}
	return false, false
}
