package explore

import (
	"context"
	"time"
)

// Stop reasons reported in Result.Stopped when a run ends before its
// search space is exhausted. A stopped run returns a well-formed partial
// Result with a nil error — interactive callers inspect Stopped instead
// of losing the partial work.
const (
	// StopCanceled: the run's context was canceled (client disconnect).
	StopCanceled = "canceled"
	// StopDeadline: the context deadline or Budget.Timeout expired.
	StopDeadline = "deadline"
	// StopMaxNodes: Budget.MaxNodes statuses were generated.
	StopMaxNodes = "max-nodes"
	// StopMaxPaths: Budget.MaxPaths paths were tallied.
	StopMaxPaths = "max-paths"
	// StopSink: the run's Sink returned ErrStopEmit — the streaming
	// consumer had seen enough.
	StopSink = "sink"
)

// Budget bounds a single exploration run. A run that exhausts any bound
// ends promptly with a partial Result whose Stopped field names the bound
// hit; this is not an error — it is the contract that keeps adversarial
// queries from pinning a server core. The zero Budget imposes no bounds.
//
// Budget differs from Options.MaxNodes: exceeding MaxNodes is a hard
// failure (ErrGraphTooLarge, the paper's out-of-memory condition), while
// exceeding Budget.MaxNodes yields the partial work done so far.
type Budget struct {
	// Timeout bounds the run's wall clock. 0 means no time bound beyond
	// the context's own deadline.
	Timeout time.Duration
	// MaxNodes bounds generated statuses across the whole run. 0 means
	// unlimited.
	MaxNodes int64
	// MaxPaths bounds tallied paths. 0 means unlimited.
	MaxPaths int64
}

// IsZero reports whether the budget imposes no bounds.
func (b Budget) IsZero() bool {
	return b.Timeout == 0 && b.MaxNodes == 0 && b.MaxPaths == 0
}

// Internal stop-reason codes; 0 is "running". First writer wins, so the
// reported reason is the bound that actually ended the run.
const (
	stopNone int32 = iota
	stopCanceled
	stopDeadline
	stopMaxNodes
	stopMaxPaths
	stopSink
)

func stopString(r int32) string {
	switch r {
	case stopCanceled:
		return StopCanceled
	case stopDeadline:
		return StopDeadline
	case stopMaxNodes:
		return StopMaxNodes
	case stopMaxPaths:
		return StopMaxPaths
	case stopSink:
		return StopSink
	default:
		return ""
	}
}

// control is the per-run cancellation and budget state. A run is
// single-goroutine, so its fields need no synchronisation. It is nil on
// unbounded background-context runs, so the legacy hot path pays
// nothing.
type control struct {
	done        <-chan struct{} // ctx.Done(); nil when uncancellable
	ctx         context.Context
	deadline    time.Time // wall-clock bound from Budget.Timeout
	hasDeadline bool
	maxNodes    int64
	maxPaths    int64

	nodes   int64 // generated statuses, tracked only when maxNodes > 0
	paths   int64 // tallied paths, tracked only when maxPaths > 0
	stopped int32 // stopNone while running; else the first reason hit
}

// newControl builds the run control, or nil when ctx can never fire and
// the budget is empty (the engine then skips every per-node check).
// Negative budget fields are treated as unlimited; validate rejects them
// on the public entry points before a control is built.
func newControl(ctx context.Context, b Budget) *control {
	done := ctx.Done()
	if done == nil && b.IsZero() {
		return nil
	}
	c := &control{done: done, ctx: ctx}
	if b.MaxNodes > 0 {
		c.maxNodes = b.MaxNodes
	}
	if b.MaxPaths > 0 {
		c.maxPaths = b.MaxPaths
	}
	if b.Timeout > 0 {
		c.deadline = time.Now().Add(b.Timeout)
		c.hasDeadline = true
	}
	return c
}

// stop records a reason if none is set yet and returns the effective one.
func (c *control) stop(reason int32) int32 {
	if c.stopped == stopNone {
		c.stopped = reason
	}
	return c.stopped
}

// halted re-checks cancellation and the wall clock and returns the stop
// reason, or stopNone while the run may continue. It is the engines'
// per-popped-node check.
func (c *control) halted() int32 {
	if r := c.stopped; r != stopNone {
		return r
	}
	if c.done != nil {
		select {
		case <-c.done:
			r := stopCanceled
			if c.ctx.Err() == context.DeadlineExceeded {
				r = stopDeadline
			}
			return c.stop(int32(r))
		default:
		}
	}
	if c.hasDeadline && !time.Now().Before(c.deadline) {
		return c.stop(stopDeadline)
	}
	return stopNone
}

// noteNode charges one generated status against the node budget and
// reports whether the budget is now exhausted (the caller should stop
// before expanding the node).
func (c *control) noteNode() bool {
	if c.maxNodes == 0 {
		return false
	}
	c.nodes++
	if c.nodes > c.maxNodes {
		c.stop(stopMaxNodes)
		return true
	}
	return false
}

// notePaths charges n tallied paths against the path budget.
func (c *control) notePaths(n int64) {
	if c.maxPaths == 0 || n == 0 {
		return
	}
	c.paths += n
	if c.paths >= c.maxPaths {
		c.stop(stopMaxPaths)
	}
}

// haltReason is a nil-safe halted() that reports the stop reason as the
// public Stopped string ("" while the run may continue).
func (c *control) haltReason() string {
	if c == nil {
		return ""
	}
	return stopString(c.halted())
}

// reason returns the final Stopped string for Result ("" if the run
// completed).
func (c *control) reason() string {
	if c == nil {
		return ""
	}
	return stopString(c.stopped)
}

// interrupted reports whether a stop reason has been recorded, without
// re-checking clocks. Engines use it to guard memo writes: a tally
// computed after (or across) a stop may be partial and must not be
// memoised.
func (c *control) interrupted() bool {
	return c != nil && c.stopped != stopNone
}
