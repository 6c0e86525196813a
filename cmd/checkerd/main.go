// Command checkerd serves the proof-checking wire protocol (the SerAPI
// substitute) over TCP against the embedded corpus environment. Clients
// open one proof document per connection and drive it with Exec/Cancel.
//
// Example session (one S-expression per line):
//
//	(NewDoc (Lemma app_nil_r))
//	(Exec "induction l.")
//	(Query Goals)
//	(Cancel 0)
//	(Quit)
//
// checkerd also serves whole grid units (RunUnit) to a distributed-sweep
// coordinator (cmd/experiments -worker-addrs); it logs the corpus hash it
// serves units for, which must match the coordinator's.
//
// SIGINT/SIGTERM drain open sessions for -grace before force-closing them;
// a second signal skips the drain and kills every session on the spot (the
// escape hatch when a stuck client is what prompted the shutdown).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"llmfscq/internal/corpus"
	"llmfscq/internal/eval"
	"llmfscq/internal/protocol"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:4711", "listen address")
	maxConns := flag.Int("max-conns", protocol.DefaultMaxConns, "maximum concurrently served sessions; further dials wait in the listen backlog")
	grace := flag.Duration("grace", 5*time.Second, "drain window for open sessions on SIGINT/SIGTERM")
	flag.Parse()
	if err := validateFlags(*addr, *maxConns, *grace); err != nil {
		fmt.Fprintf(os.Stderr, "checkerd: %v\n", err)
		os.Exit(2)
	}

	c, err := corpus.Default()
	if err != nil {
		log.Fatalf("loading corpus: %v", err)
	}
	srv := protocol.NewServer(c.Env)
	srv.MaxConns = *maxConns
	srv.Units = eval.NewUnitHandler(c)
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	fmt.Printf("checkerd: serving %d lemmas on %s (max %d sessions)\n", len(c.Env.Lemmas), bound, *maxConns)
	fmt.Printf("checkerd: serving grid units for corpus %016x%016x\n", c.Hash[0], c.Hash[1])

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "checkerd: %v, draining sessions (up to %v; signal again to kill)\n", sig, *grace)
		shutdownDone := make(chan error, 1)
		go func() { shutdownDone <- srv.Shutdown(*grace) }()
		select {
		case sig = <-sigc:
			fmt.Fprintf(os.Stderr, "checkerd: second %v, killing open sessions\n", sig)
			if err := srv.Kill(); err != nil {
				log.Fatalf("kill: %v", err)
			}
		case err := <-shutdownDone:
			if err != nil {
				log.Fatalf("shutdown: %v", err)
			}
		}
		if err := <-done; err != nil {
			log.Fatalf("serve: %v", err)
		}
		fmt.Fprintln(os.Stderr, "checkerd: bye")
	case err := <-done:
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
	}
}

// validateFlags rejects settings that cannot work: no listen address, a
// session cap that admits no session (the server would silently fall back
// to its default), or a negative drain window.
func validateFlags(addr string, maxConns int, grace time.Duration) error {
	if addr == "" {
		return errors.New("-addr must not be empty")
	}
	if maxConns <= 0 {
		return fmt.Errorf("-max-conns must be >= 1, got %d", maxConns)
	}
	if grace < 0 {
		return fmt.Errorf("-grace must be >= 0, got %v", grace)
	}
	return nil
}
