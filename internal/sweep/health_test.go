package sweep

import (
	"testing"
	"time"

	"llmfscq/internal/checker"
)

// fakeClock drives a Scorer without sleeping, matching the injectable-Now
// idiom of the breaker tests in internal/remote.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newClockedScorer() (*Scorer, *fakeClock) {
	clk := &fakeClock{t: t0}
	return &Scorer{Now: clk.now}, clk
}

func TestScorerCleanWorkerStaysHealthy(t *testing.T) {
	s, clk := newClockedScorer()
	if got := s.Score(); got != 1 {
		t.Fatalf("fresh scorer: score %v, want 1", got)
	}
	for i := 0; i < 1000; i++ {
		s.Observe(checker.HealthSignals{WireChecks: 50})
		clk.advance(10 * time.Millisecond)
	}
	if got := s.Score(); got != 1 {
		t.Fatalf("clean worker drifted to %v", got)
	}
	if s.Quarantined() {
		t.Fatal("clean worker quarantined")
	}
}

func TestScorerPenaltyDecaysWithHalfLife(t *testing.T) {
	s, clk := newClockedScorer()
	s.Observe(checker.HealthSignals{Degraded: 1})
	before := s.Score()
	clk.advance(DefaultRecoveryHalfLife)
	mid := s.Score()
	clk.advance(DefaultRecoveryHalfLife)
	late := s.Score()
	if !(before < mid && mid < late) {
		t.Fatalf("score not recovering: %v -> %v -> %v", before, mid, late)
	}
	// One half-life halves the penalty exactly: score 1/(1+p/2).
	wantMid := 1 / (1 + penaltyDegraded/2)
	if diff := mid - wantMid; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("after one half-life: score %v, want %v", mid, wantMid)
	}
	clk.advance(100 * DefaultRecoveryHalfLife)
	if got := s.Score(); got < 0.999999 {
		t.Fatalf("penalty should have decayed to ~0, score %v", got)
	}
}

func TestScorerBlipsAreJudgedByRate(t *testing.T) {
	// The same 10 retries mean different things at different traffic
	// volumes: a lossy-but-working wire under heavy search traffic is
	// nearly free, while a wire where most attempts needed the ladder is
	// in real trouble.
	lossy, _ := newClockedScorer()
	for i := 0; i < 20; i++ {
		lossy.Observe(checker.HealthSignals{WireChecks: 3000, Retries: 10, Resurrections: 10})
	}
	if got := lossy.Score(); got < 0.6 {
		t.Fatalf("mildly lossy wire over-penalized: score %v", got)
	}
	if lossy.Quarantined() {
		t.Fatal("mildly lossy wire tripped quarantine")
	}

	bad, _ := newClockedScorer()
	units := 0
	for !bad.Quarantined() {
		bad.Observe(checker.HealthSignals{WireChecks: 12, Retries: 10, Resurrections: 10})
		units++
		if units > 10 {
			t.Fatalf("mostly-failing wire never quarantined (score %v)", bad.Score())
		}
	}
}

func TestScorerDecayBetweenObservations(t *testing.T) {
	// Failures spread far apart must not accumulate like a burst: a worker
	// degrading one document per five half-lives stays clear of quarantine
	// forever, while the same failures back-to-back bury it.
	s, clk := newClockedScorer()
	for i := 0; i < 100; i++ {
		s.Observe(checker.HealthSignals{LocalDocs: 1})
		clk.advance(5 * DefaultRecoveryHalfLife)
	}
	if s.Quarantined() {
		t.Fatal("spread-out failures tripped quarantine")
	}

	b, _ := newClockedScorer()
	b.Observe(checker.HealthSignals{LocalDocs: 3})
	if !b.Quarantined() {
		t.Fatalf("burst of local-only documents not quarantined (score %v)", b.Score())
	}
}

func TestScorerQuarantineIsSticky(t *testing.T) {
	s, clk := newClockedScorer()
	// A dead worker's signature: every unit degrades and the breaker opens.
	units := 0
	for !s.Quarantined() {
		s.Observe(checker.HealthSignals{Retries: 3, Degraded: 1, LocalDocs: 1, BreakerOpen: true})
		units++
		if units > 10 {
			t.Fatalf("dead worker still not quarantined after %d units (score %v)", units, s.Score())
		}
	}
	if units > 3 {
		t.Errorf("dead worker took %d units to quarantine, want <= 3", units)
	}
	// Sticky: even after the penalty fully decays, the bench holds.
	clk.advance(1000 * DefaultRecoveryHalfLife)
	if s.Score() < 0.999 {
		t.Fatalf("penalty did not decay: %v", s.Score())
	}
	if !s.Quarantined() {
		t.Fatal("quarantine must be sticky for the sweep")
	}
}

func TestScorerBreakerOpenIsALevel(t *testing.T) {
	// BreakerOpen re-penalizes every observation while the wire is refused;
	// two units under an open breaker must score worse than one.
	a, _ := newClockedScorer()
	a.Observe(checker.HealthSignals{BreakerOpen: true})
	one := a.Score()
	a.Observe(checker.HealthSignals{BreakerOpen: true})
	if got := a.Score(); got >= one {
		t.Fatalf("second open-breaker unit did not lower the score: %v -> %v", one, got)
	}
}

// The same properties under unit-level signals, where every observation is
// one RunUnit round trip: a worker that retries a steady few percent of its
// units is never benched, however long the sweep, while a dead one — every
// unit exhausting the ladder, then refused by the open breaker — is
// quarantined within three units.
func TestScorerUnitLevelSignals(t *testing.T) {
	lossy, clk := newClockedScorer()
	worst := 1.0
	for unit := 1; unit <= 2000; unit++ {
		d := checker.HealthSignals{WireChecks: 1}
		if unit%16 == 1 { // one unit in 16 needs a retry, the first one included
			d.Retries, d.Resurrections = 1, 1
		}
		lossy.Observe(d)
		clk.advance(5 * time.Millisecond)
		if s := lossy.Score(); s < worst {
			worst = s
		}
	}
	if lossy.Quarantined() || worst < 0.4 {
		t.Fatalf("lossy unit stream: quarantined=%v, worst score %.3f", lossy.Quarantined(), worst)
	}

	dead, _ := newClockedScorer()
	units := 0
	for !dead.Quarantined() {
		units++
		d := checker.HealthSignals{Retries: 2, Resurrections: 2, Degraded: 1}
		if units > 1 {
			d = checker.HealthSignals{LocalDocs: 1, BreakerOpen: true}
		}
		dead.Observe(d)
		if units > 10 {
			t.Fatalf("dead unit stream never quarantined (score %.3f)", dead.Score())
		}
	}
	if units > 3 {
		t.Errorf("dead worker took %d units to quarantine, want <= 3", units)
	}
}
