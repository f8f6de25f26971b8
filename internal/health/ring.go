package health

// Point is one time-series observation.
type Point struct {
	AtUS int64   `json:"at_us"`
	V    float64 `json:"v"`
}

// Series is a fixed-capacity time-series ring. Push never allocates
// after construction; when full, the oldest point is overwritten. All
// methods are unsynchronized — the owning Monitor serializes access.
type Series struct {
	buf  []Point
	head int // index of the oldest point
	n    int
}

// NewSeries returns a ring holding the last capacity points.
func NewSeries(capacity int) *Series {
	if capacity < 2 {
		capacity = 2
	}
	return &Series{buf: make([]Point, capacity)}
}

// Push appends an observation, evicting the oldest at capacity.
func (s *Series) Push(atUS int64, v float64) {
	if s.n < len(s.buf) {
		s.buf[(s.head+s.n)%len(s.buf)] = Point{AtUS: atUS, V: v}
		s.n++
		return
	}
	s.buf[s.head] = Point{AtUS: atUS, V: v}
	s.head = (s.head + 1) % len(s.buf)
}

// Len reports the number of held points.
func (s *Series) Len() int { return s.n }

// At returns the i-th point, 0 = oldest. Panics out of range.
func (s *Series) At(i int) Point {
	if i < 0 || i >= s.n {
		panic("health: series index out of range")
	}
	return s.buf[(s.head+i)%len(s.buf)]
}

// Last returns the newest point; ok is false on an empty ring.
func (s *Series) Last() (Point, bool) {
	if s.n == 0 {
		return Point{}, false
	}
	return s.At(s.n - 1), true
}

// AppendWindow appends the newest window points (all, if fewer) to dst,
// oldest first. Allocation-free when dst has capacity — callers reuse
// scratch or accept the copy on verdict transitions.
func (s *Series) AppendWindow(dst []Point, window int) []Point {
	if window > s.n {
		window = s.n
	}
	for i := s.n - window; i < s.n; i++ {
		dst = append(dst, s.At(i))
	}
	return dst
}

// Slope fits a least-squares line over the newest window points and
// returns its slope in units per second. Zero when the window spans no
// time or fewer than two points.
func (s *Series) Slope(window int) float64 {
	if window > s.n {
		window = s.n
	}
	if window < 2 {
		return 0
	}
	start := s.n - window
	t0 := s.At(start).AtUS
	var sumX, sumY, sumXX, sumXY float64
	for i := start; i < s.n; i++ {
		p := s.At(i)
		x := float64(p.AtUS-t0) / 1e6
		sumX += x
		sumY += p.V
		sumXX += x * x
		sumXY += x * p.V
	}
	n := float64(window)
	den := n*sumXX - sumX*sumX
	if den == 0 {
		return 0
	}
	return (n*sumXY - sumX*sumY) / den
}

// Mean averages the newest window points (0 on an empty ring).
func (s *Series) Mean(window int) float64 {
	if window > s.n {
		window = s.n
	}
	if window == 0 {
		return 0
	}
	var sum float64
	for i := s.n - window; i < s.n; i++ {
		sum += s.At(i).V
	}
	return sum / float64(window)
}

// monotoneGrowth reports whether the newest window points never
// decrease and end at least factor times where they started. Used by
// the MemoryGrowth rule: a sustained ramp, not a burst.
func (s *Series) monotoneGrowth(window int, factor float64) bool {
	if window > s.n || window < 2 {
		return false
	}
	start := s.n - window
	first := s.At(start).V
	prev := first
	for i := start + 1; i < s.n; i++ {
		v := s.At(i).V
		if v < prev {
			return false
		}
		prev = v
	}
	return prev >= first*factor
}
