package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Admission control and load shedding.
//
// Every request passes one of two priority lanes before it can touch a
// worker:
//
//   - the interactive lane (Predict, Do, Defend, Detect) carries the
//     traffic a deployed system answers in human time;
//   - the bulk lane (Attack, Evaluate) carries adversarial crafting and
//     sweep jobs that hold resources for seconds to minutes.
//
// Each lane bounds how many requests may be admitted-but-unfinished at
// once (queued and in flight both count). Load beyond the bound is shed
// immediately with an OverloadError carrying a Retry-After hint — a 429
// on the wire — instead of queuing unboundedly: under overload a bounded
// queue keeps latency for admitted requests flat while excess clients
// get an honest, retryable refusal. Because the lanes are independent
// and bulk crafting runs on its own dedicated pipeline clones
// (Options.AttackWorkers), a flood of /v1/attack traffic can fill only
// the bulk lane; /v1/predict admission is untouched.

// ErrOverloaded is the errors.Is target for admission-control sheds.
var ErrOverloaded = errors.New("serve: overloaded")

// ErrDraining is returned for new requests once BeginDrain was called:
// the server is about to stop, in-flight work is completing, and load
// balancers should route elsewhere (HTTP 503).
var ErrDraining = errors.New("serve: draining")

// OverloadError reports a shed request: the named lane was at capacity.
// It matches errors.Is(err, ErrOverloaded).
type OverloadError struct {
	// Lane is the admission lane that shed the request ("interactive" or
	// "bulk").
	Lane string
	// RetryAfter is the suggested client backoff (the HTTP layer sends it
	// as a Retry-After header).
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: %s lane at capacity, retry after %v", e.Lane, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match any OverloadError.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// degradedWindow is how long after the most recent shed /v1/healthz
// keeps reporting "degraded".
const degradedWindow = 5 * time.Second

// lane is one bounded admission queue with shed accounting.
type lane struct {
	name       string
	limit      int // <= 0: unbounded (counters still maintained)
	retryAfter time.Duration

	depth    atomic.Int64  // admitted-but-unfinished requests
	admitted atomic.Uint64 // total admissions
	shed     atomic.Uint64 // total refusals
	lastShed atomic.Int64  // UnixNano of the most recent shed
}

// admit reserves n slots in the lane, returning a release closure the
// caller must invoke exactly once when the request finishes (the closure
// is idempotent). When the reservation would push the lane past its
// limit, nothing is reserved and an OverloadError is returned.
func (l *lane) admit(n int) (release func(), err error) {
	if n <= 0 {
		return func() {}, nil
	}
	if l.limit > 0 {
		for {
			cur := l.depth.Load()
			if cur+int64(n) > int64(l.limit) {
				l.shed.Add(uint64(n))
				l.lastShed.Store(time.Now().UnixNano())
				return nil, &OverloadError{Lane: l.name, RetryAfter: l.retryAfter}
			}
			if l.depth.CompareAndSwap(cur, cur+int64(n)) {
				break
			}
		}
	} else {
		l.depth.Add(int64(n))
	}
	l.admitted.Add(uint64(n))
	var once sync.Once
	return func() { once.Do(func() { l.depth.Add(-int64(n)) }) }, nil
}

// shedding reports whether the lane shed within the degraded window —
// the signal /v1/healthz uses to flip from "ok" to "degraded".
func (l *lane) shedding() bool {
	last := l.lastShed.Load()
	return last != 0 && time.Since(time.Unix(0, last)) <= degradedWindow
}

// LaneStats is one lane's admission snapshot (embedded in Stats and
// exported on /metrics).
type LaneStats struct {
	// Depth is the number of admitted-but-unfinished requests.
	Depth int64 `json:"depth"`
	// Limit is the admission bound (0 = unbounded).
	Limit int `json:"limit"`
	// Admitted and Shed are lifetime counters.
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
}

func (l *lane) stats() LaneStats {
	limit := l.limit
	if limit < 0 {
		limit = 0
	}
	return LaneStats{
		Depth:    l.depth.Load(),
		Limit:    limit,
		Admitted: l.admitted.Load(),
		Shed:     l.shed.Load(),
	}
}

// BeginDrain switches the server into draining mode: new requests are
// refused with ErrDraining (HTTP 503), /v1/healthz flips to 503 so
// front doors and load balancers stop routing here, and in-flight work —
// queued predictions and running crafting jobs alike — keeps executing
// to completion. Call it when a shutdown signal arrives, then drain the
// HTTP listener (http.Server.Shutdown), then Close the server. BeginDrain
// is idempotent and safe from any goroutine.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called (or the server closed).
func (s *Server) Draining() bool {
	if s.draining.Load() {
		return true
	}
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// refuseNew returns the error new work must be refused with, or nil when
// the server is accepting requests.
func (s *Server) refuseNew() error {
	select {
	case <-s.done:
		return ErrServerClosed
	default:
	}
	if s.draining.Load() {
		return ErrDraining
	}
	return nil
}

// enter is the gate every request passes before it may hold resources:
// refuse new work while draining or closed, reserve n slots in lane l
// (shed with an OverloadError when full), and apply the route's
// server-side deadline d (the lane SLO; <= 0: none) on top of the
// client's context. The caller defers leave.
func (s *Server) enter(ctx context.Context, l *lane, n int, d time.Duration) (_ context.Context, leave func(), err error) {
	if err := s.refuseNew(); err != nil {
		return nil, nil, err
	}
	release, err := l.admit(n)
	if err != nil {
		return nil, nil, err
	}
	if d <= 0 {
		return ctx, release, nil
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	return ctx, func() { cancel(); release() }, nil
}
