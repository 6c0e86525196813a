package sweep

import (
	"math"
	"sync"
	"time"

	"llmfscq/internal/checker"
)

// Health-scorer defaults. Penalty weights are calibrated against the
// robustness ladder of internal/remote, and the line they draw is whether
// the ladder held.
//
// Retries and resurrections are blips the ladder absorbed, so they are
// judged as a rate: their weighted count over the wire traffic that
// produced them, both summed over the same decaying window as the penalty.
// 10 retries among 3000 round trips is a worker on a slightly lossy wire
// and worth keeping, 10 among 12 is a wire in real trouble. The rate is a
// level, not an accumulation, so a steadily lossy worker holds a steady
// score however long the sweep runs, and it does not depend on how much
// traffic one observation carries (a fleet unit is a single round trip).
// The window counts at least blipMinTraffic attempts, so one retry on a
// worker's first unit reads as a blip, not a 50% failure rate.
//
// Degraded units, units refused by an open breaker, and an open breaker
// itself mean the ladder was exhausted — the worker contributed nothing
// over the coordinator running the unit itself — and are charged
// absolutely: a dead worker crosses the quarantine threshold within three
// units.
const (
	// DefaultQuarantineBelow is the score under which a worker is
	// quarantined.
	DefaultQuarantineBelow = 0.25
	// DefaultRecoveryHalfLife is the elapsed time that halves accumulated
	// penalty, so transient blips age out instead of slowly ratcheting a
	// healthy worker into quarantine.
	DefaultRecoveryHalfLife = 30 * time.Second

	blipRetryWeight     = 3.0
	blipResurrectWeight = 6.0
	penaltyDegraded     = 3.0
	penaltyLocalDoc     = 1.5
	penaltyBreakerOpen  = 4.0
	blipMinTraffic      = 8.0
)

// Scorer scores one worker's health in (0,1] from the robustness-ladder
// deltas observed around each unit of work. The score is
// 1/(1+penalty+blip level), where penalty accumulates from ladder-exhausted
// signals, and it and the blip window decay exponentially with
// RecoveryHalfLife — so a worker that hiccuped once
// recovers, while a dead one (every unit burning its retries, then refused
// by an open breaker) crosses the quarantine threshold within a few units.
//
// Quarantine is sticky for the sweep: scores steer dispatch, and a worker
// bad enough to trip the threshold has already cost straggler re-dispatches
// — capacity lost by benching it is covered by work-stealing and, in the
// limit, the coordinator's in-process fallback. Scores never influence
// results, only routing.
type Scorer struct {
	// QuarantineBelow is the sticky quarantine threshold (0: default).
	QuarantineBelow float64
	// RecoveryHalfLife is the penalty half-life (0: default).
	RecoveryHalfLife time.Duration
	// Now is the clock (nil: time.Now). Injectable so decay and quarantine
	// transitions are testable without sleeping.
	Now func() time.Time

	mu      sync.Mutex
	penalty float64 // ladder-exhausted signals, absolute
	// blips and traffic are the decayed weighted blip count and wire
	// attempts whose ratio is the blip level.
	blips, traffic float64
	last           time.Time
	hasLast        bool
	quarantined    bool
}

func (s *Scorer) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

// decayLocked ages the accumulated penalty to the present. Callers hold mu.
func (s *Scorer) decayLocked(now time.Time) {
	hl := s.RecoveryHalfLife
	if hl <= 0 {
		hl = DefaultRecoveryHalfLife
	}
	if s.hasLast {
		if dt := now.Sub(s.last); dt > 0 {
			f := math.Exp2(-float64(dt) / float64(hl))
			s.penalty *= f
			s.blips *= f
			s.traffic *= f
		}
	}
	s.last = now
	s.hasLast = true
}

// Observe folds one unit's signal delta into the score. BreakerOpen is a
// level, not an edge: it re-penalizes every unit served while the breaker
// rejects wire traffic, which is exactly the sustained condition quarantine
// exists for.
func (s *Scorer) Observe(d checker.HealthSignals) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.decayLocked(s.now())
	s.traffic += float64(d.WireChecks + d.Retries)
	s.blips += blipRetryWeight*float64(d.Retries) + blipResurrectWeight*float64(d.Resurrections)
	// Ladder-exhausted signals, absolute.
	s.penalty += penaltyDegraded*float64(d.Degraded) + penaltyLocalDoc*float64(d.LocalDocs)
	if d.BreakerOpen {
		s.penalty += penaltyBreakerOpen
	}
	if s.scoreLocked() < s.threshold() {
		s.quarantined = true
	}
}

func (s *Scorer) threshold() float64 {
	if s.QuarantineBelow > 0 {
		return s.QuarantineBelow
	}
	return DefaultQuarantineBelow
}

func (s *Scorer) scoreLocked() float64 {
	return 1 / (1 + s.penalty + s.blips/math.Max(s.traffic, blipMinTraffic))
}

// Score returns the current health in (0,1], after aging the penalty to
// the present.
func (s *Scorer) Score() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.decayLocked(s.now())
	return s.scoreLocked()
}

// Quarantined reports whether the worker has been benched. Sticky: once
// tripped it stays for the rest of the sweep.
func (s *Scorer) Quarantined() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}
