package remote

import (
	"errors"
	"math/rand"
	"time"

	"llmfscq/internal/protocol"
	"llmfscq/internal/store"
)

// UnitTimeout bounds one RunUnit round trip. A unit is a whole search, not
// one tactic, so its deadline is not Policy.RequestTimeout (the paper's
// per-tactic budget); slow units are the distributed sweep's straggler
// re-dispatch's business long before this fires.
const UnitTimeout = 2 * time.Minute

// errBreakerOpen is returned by RunUnit while the circuit breaker rejects
// wire traffic.
var errBreakerOpen = errors.New("remote: circuit breaker open")

// unitConn returns an idle unit session, or dials a fresh one (always, when
// fresh is set: after a failure the idle sessions may be just as dead).
func (b *Backend) unitConn(fresh bool) (*protocol.Client, error) {
	if !fresh {
		select {
		case cl := <-b.idle:
			return cl, nil
		default:
		}
	}
	cl, err := b.dial()
	if err != nil {
		return nil, err
	}
	cl.Timeout = UnitTimeout
	return cl, nil
}

// putUnitConn parks a healthy unit session for reuse, or closes it when
// PoolSize sessions are already parked.
func (b *Backend) putUnitConn(cl *protocol.Client) {
	select {
	case b.idle <- cl:
	default:
		//lint:ignore errdrop surplus idle session; nothing depends on a clean quit
		_ = cl.Close()
	}
}

// RunUnit runs one whole grid unit on the worker and returns its
// checksummed record. It goes through the same robustness ladder and
// counters as tactic documents: a refused unit (protocol.ErrRefused) is
// returned at once, transport faults — a dropped or torn connection, a
// garbled or checksum-failing answer, a missed deadline — are retried on a
// fresh session with backoff, and exhausted retries trip the breaker and
// count as Degraded. Each successful round trip counts one WireCheck.
func (b *Backend) RunUnit(req protocol.UnitRequest) (store.OutcomeRec, error) {
	b.init()
	if !b.breaker.Allow() {
		b.Stats.LocalDocs.Add(1)
		return store.OutcomeRec{}, errBreakerOpen
	}
	pol := b.Policy
	var rng *rand.Rand
	var lastErr error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(b.Seed ^ b.docID.Add(1)*0x5851f42d4c957f2d))
			}
			b.Stats.Retries.Add(1)
			b.sleep(pol.Backoff(attempt-1, rng))
			b.Stats.Resurrections.Add(1)
		}
		cl, err := b.unitConn(attempt > 0)
		if err != nil {
			lastErr = err
			continue
		}
		rec, err := cl.RunUnit(req)
		if err == nil || errors.Is(err, protocol.ErrRefused) {
			b.putUnitConn(cl)
			b.breaker.Success()
			if err == nil {
				b.Stats.WireChecks.Add(1)
			}
			return rec, err
		}
		//lint:ignore errdrop discarding a session already judged broken; the retry result is what matters
		_ = cl.Close()
		lastErr = err
	}
	b.breaker.Failure()
	b.Stats.Degraded.Add(1)
	return store.OutcomeRec{}, lastErr
}
