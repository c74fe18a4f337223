package exec

import "sync"

// WallMeter converts the cost meter's resource totals into simulated
// wall-clock time for parallel queries. The cost meter keeps summing
// every worker's work — that is the resource consumption the Eq. 1/2
// checkpoint arithmetic reasons about — while each gather point reports
// how much of that work overlapped: the sum of its workers' local costs
// minus the slowest worker's cost. Simulated wall time is then
//
//	wall = total metered cost − Σ savings
//
// which reduces to the metered cost exactly when every region ran on one
// worker.
type WallMeter struct {
	mu    sync.Mutex
	saved float64
}

// NewWallMeter returns an empty meter.
func NewWallMeter() *WallMeter { return &WallMeter{} }

// AddSavings records one gather point's overlap (sum of worker costs
// minus the critical-path worker). Nil-safe.
func (w *WallMeter) AddSavings(s float64) {
	if w == nil || s <= 0 {
		return
	}
	w.mu.Lock()
	w.saved += s
	w.mu.Unlock()
}

// Saved returns the total overlapped cost across all gather points.
func (w *WallMeter) Saved() float64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.saved
}
