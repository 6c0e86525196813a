package sweep

import (
	"fmt"

	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/kernel"
	"llmfscq/internal/protocol"
)

// Fleet is a set of in-process checkerd servers on loopback ports — the
// simulated cluster behind `cmd/experiments -workers N`. Each member is a
// real wire-protocol server: workers dial it over TCP exactly as they would
// a remote host, so the coordinator, the retry ladder, and the chaos tests
// exercise the same code paths a physical fleet would.
type Fleet struct {
	servers []*protocol.Server
	addrs   []string
}

// SpawnFleet starts n servers over env (each restricted per-lemma exactly
// like a standalone checkerd), all serving units through one shared
// eval.UnitHandler over the embedded corpus (corpus.Default, memoized per
// process). On error, every already-started member is torn down.
func SpawnFleet(env *kernel.Env, n int) (*Fleet, error) {
	c, err := corpus.Default()
	if err != nil {
		return nil, fmt.Errorf("sweep: loading the workers' corpus: %w", err)
	}
	return spawnFleet(env, n, eval.NewUnitHandler(c))
}

// spawnFleet is SpawnFleet with the members' unit handler given.
func spawnFleet(env *kernel.Env, n int, units protocol.UnitHandler) (*Fleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("sweep: fleet size %d < 1", n)
	}
	f := &Fleet{}
	for i := 0; i < n; i++ {
		srv := protocol.NewServer(env)
		srv.Units = units
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("sweep: spawning worker %d: %w", i, err)
		}
		go srv.Serve() //nolint:errcheck
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, addr)
	}
	return f, nil
}

// Addrs returns the members' listen addresses in spawn order.
func (f *Fleet) Addrs() []string { return f.addrs }

// Size returns the number of members (including killed ones).
func (f *Fleet) Size() int { return len(f.servers) }

// Kill terminates member i abruptly: listener and every open session die
// with no drain — the SIGKILL analogue. Idempotent.
func (f *Fleet) Kill(i int) {
	_ = f.servers[i].Kill()
}

// Close stops every member's listener (open sessions finish normally).
func (f *Fleet) Close() {
	for _, srv := range f.servers {
		_ = srv.Close()
	}
}

// Workers builds the fleet's worker set via DialWorkers and wires each
// worker's Kill hook to the matching member, so the worker-kill fault site
// can take a process down mid-sweep.
func (f *Fleet) Workers(opt WorkerOptions) []*Worker {
	workers := DialWorkers(f.addrs, opt)
	for i, w := range workers {
		member := i
		w.Kill = func() { f.Kill(member) }
	}
	return workers
}
