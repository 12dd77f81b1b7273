package stats

// SlidingLinReg is an online simple linear regression y ≈ alpha*x + gamma
// over a sliding window of the most recent observations.
//
// Cameo's PROGRESSMAP for event-time streams is exactly this model (paper
// §4.3): x is frontier progress (logical event time), y is the physical time
// the frontier was observed, and the window keeps the fit tracking recent
// ingestion delay rather than the whole history.
type SlidingLinReg struct {
	window int
	xs, ys []float64
	head   int
	full   bool

	// running sums over the window
	sx, sy, sxx, sxy float64
}

// NewSlidingLinReg returns a regression over a window of the given size.
// Window must be at least 2.
func NewSlidingLinReg(window int) *SlidingLinReg {
	if window < 2 {
		panic("stats: regression window must be >= 2")
	}
	return &SlidingLinReg{
		window: window,
		xs:     make([]float64, window),
		ys:     make([]float64, window),
	}
}

// Observe adds the pair (x, y), evicting the oldest pair if the window is full.
func (r *SlidingLinReg) Observe(x, y float64) {
	if r.full {
		ox, oy := r.xs[r.head], r.ys[r.head]
		r.sx -= ox
		r.sy -= oy
		r.sxx -= ox * ox
		r.sxy -= ox * oy
	}
	r.xs[r.head] = x
	r.ys[r.head] = y
	r.sx += x
	r.sy += y
	r.sxx += x * x
	r.sxy += x * y
	r.head++
	if r.head == r.window {
		r.head = 0
		r.full = true
	}
}

// Len reports the number of pairs currently in the window.
func (r *SlidingLinReg) Len() int {
	if r.full {
		return r.window
	}
	return r.head
}

// Ready reports whether at least two pairs have been observed, i.e. whether
// Fit can return a meaningful line.
func (r *SlidingLinReg) Ready() bool { return r.Len() >= 2 }

// Fit returns the current slope alpha and intercept gamma. If the x values
// in the window are (numerically) constant the slope is 0 and the intercept
// is the mean of y, which degrades gracefully to a constant-delay model.
func (r *SlidingLinReg) Fit() (alpha, gamma float64) {
	n := float64(r.Len())
	if n < 2 {
		return 0, r.sy / max(n, 1)
	}
	den := n*r.sxx - r.sx*r.sx
	if den == 0 {
		return 0, r.sy / n
	}
	alpha = (n*r.sxy - r.sx*r.sy) / den
	gamma = (r.sy - alpha*r.sx) / n
	return alpha, gamma
}

// Predict returns the model's estimate of y at x.
func (r *SlidingLinReg) Predict(x float64) float64 {
	alpha, gamma := r.Fit()
	return alpha*x + gamma
}
