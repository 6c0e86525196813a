// Command perfbench is the repository's benchmark: it runs cmd/experiments
// end to end on one workload, as a child process, and reports what a user
// waits on — wall time, set-up time, CPU time and peak memory — after
// checking every run's tables against the workload's reference. With
// --trace 1 it also replays the workload in process through the layers'
// public functions and reports per-layer time and counts.
//
// Run it through run.sh from the repository root, which builds the driver
// and cmd/experiments first:
//
//	bash _perfbench/run.sh --workload cold --seed 2025 --seconds 20 --trace 0
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics. --workload all runs every workload and prints one summary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// deadline bounds the run of one workload; children still running at it
// are killed and waited for.
const deadline = 170 * time.Second

// reserve is the time the timed runs leave before the deadline, for the
// traced run and the report.
const reserve = 60 * time.Second

// setupReps is how many set-up invocations setup_s is the median of.
const setupReps = 9

func main() {
	log.SetFlags(0)
	var (
		name    = flag.String("workload", "", "cold, warm, retune, fleet, or all")
		seed    = flag.Int64("seed", 2025, "workload seed: orders the pool of program seeds the run measures")
		seconds = flag.Int("seconds", 20, "how long the timed invocations of one workload last")
		traced  = flag.Int("trace", 0, "1: add a traced in-process run and report per-layer metrics instead")
		bin     = flag.String("experiments", "", "path of the built cmd/experiments binary")
		work    = flag.String("work", "", "directory for stores and span files")
		refs    = flag.String("refs", "", "file of recorded reference stdout hashes (sha256sum format)")
		record  = flag.Bool("record", false, "record the reference hashes of every pool seed into -refs and exit")
	)
	flag.Parse()
	if *bin == "" || *work == "" || *refs == "" {
		log.Fatal("perfbench: -experiments, -work and -refs are required (run.sh sets them)")
	}
	if *traced != 0 && *traced != 1 {
		log.Fatalf("perfbench: -trace must be 0 or 1, not %d", *traced)
	}
	if err := checkDefs(append(append([]metricDef(nil), endToEnd...), perLayer...)); err != nil {
		log.Fatalf("perfbench: %v", err)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		log.Fatalf("perfbench: %v", err)
	}
	b := &bench{bin: *bin, work: *work, seed: *seed, budget: time.Duration(*seconds) * time.Second}
	if *record {
		if err := b.record(*refs); err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		return
	}
	data, err := os.ReadFile(b.bin)
	if err != nil {
		log.Fatalf("perfbench: %v", err)
	}
	b.binSum = sha256Hex(data)
	if b.sums, err = loadReferences(*refs); err != nil {
		log.Fatalf("perfbench: %v", err)
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		log.Fatalf("perfbench: unknown workload %q (want cold, warm, retune, fleet or all)", *name)
	}

	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range todo {
		res, err := b.run(w, *traced == 1)
		if err != nil {
			log.Fatalf("perfbench: %s: %v", w.name, err)
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(todo) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		log.Fatalf("perfbench: %v", err)
	}
	fmt.Println(string(line))
}

// result is the driver's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type bench struct {
	bin, work string
	binSum    string // SHA-256 of bin, names the primed-store cache
	seed      int64
	budget    time.Duration
	sums      references
}

// session is the state of one workload's run: its program seeds, scratch
// directory and stores, and the tally of invocations.
type session struct {
	ctx       context.Context // ends at the run's deadline
	w         workload
	seeds     []int64
	dir       string
	stores    map[int64]string // per seed: the run's store (shared) or the primed one (fresh)
	attempted int
	failures  []string
	storeSeq  int
}

// check counts one invocation, failed if it exited non-zero or its stdout
// does not hash to want ("": anything).
func (s *session) check(c child, what string, want string) bool {
	s.attempted++
	switch {
	case c.err != nil:
		s.failures = append(s.failures, fmt.Sprintf("%s: %v", what, c.err))
	case want != "" && sha256Hex(c.stdout) != want:
		s.failures = append(s.failures, fmt.Sprintf("%s: stdout differs from the reference", what))
	default:
		return true
	}
	return false
}

// storeFor returns the store directory one invocation at seed uses: the
// run's copy of the primed store, or a fresh copy of it.
func (s *session) storeFor(seed int64) (string, error) {
	switch s.w.cfg.store {
	case sharedStore:
		return s.stores[seed], nil
	case freshStore:
		s.storeSeq++
		dir := filepath.Join(s.dir, fmt.Sprintf("store-%d", s.storeSeq))
		return dir, copyDir(s.stores[seed], dir)
	}
	return "", nil
}

// release removes a fresh store copy once its invocation is over.
func (s *session) release(dir string) {
	if s.w.cfg.store == freshStore {
		os.RemoveAll(dir)
	}
}

// invoke runs one invocation of cfg at seed and checks it against want.
func (b *bench) invoke(s *session, cfg config, seed int64, what, want string) (child, error) {
	sd, err := s.storeFor(seed)
	if err != nil {
		return child{}, err
	}
	c := runChild(s.ctx, b.bin, cfg.args(seed, sd))
	s.release(sd)
	s.check(c, fmt.Sprintf("%s (%s)", what, strings.Join(cfg.args(seed, "<store>"), " ")), want)
	return c, nil
}

func (b *bench) run(w workload, traced bool) (result, error) {
	dir, err := os.MkdirTemp(b.work, w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	s := &session{ctx: ctx, w: w, seeds: programSeeds(b.seed, w.seeds), dir: dir, stores: map[int64]string{}}
	if w.cfg.store != noStore {
		for _, seed := range s.seeds {
			if err := b.prime(s, seed); err != nil {
				return result{}, err
			}
		}
	}

	// Set-up: the workload's flags selecting no grid job.
	var setups, setupsRaw []float64
	for i := 0; i < setupReps; i++ {
		c, err := b.invoke(s, w.cfg.setup(), s.seeds[i%len(s.seeds)], "set-up run", "")
		if err != nil {
			return result{}, err
		}
		setups = append(setups, c.elapsed().Seconds())
		setupsRaw = append(setupsRaw, c.wall.Seconds())
	}

	// Timed invocations, for the given number of seconds, cycling through
	// the run's program seeds.
	ss := samples{}
	start := time.Now()
	for i := 0; time.Since(start) < b.budget || i == 0; i++ {
		if dl, _ := s.ctx.Deadline(); i > 0 && time.Until(dl) < reserve {
			break
		}
		seed := s.seeds[i%len(s.seeds)]
		want, err := b.sums.want(w.cfg, seed)
		if err != nil {
			return result{}, err
		}
		c, err := b.invoke(s, w.cfg, seed, "timed run", want)
		if err != nil {
			return result{}, err
		}
		ss[seed] = append(ss[seed], sample{c.wall.Seconds(), c.elapsed().Seconds(), c.cpu.Seconds(), float64(c.maxRSS) / (1 << 20)})
	}
	wall := func(x sample) float64 { return x.wall }
	elapsed := func(x sample) float64 { return x.elapsed }
	cpu := func(x sample) float64 { return x.cpu }
	rss := func(x sample) float64 { return x.rss }
	values := map[string]float64{
		"wall_s":      ss.value(elapsed),
		"setup_s":     median(setups),
		"cpu_s":       ss.value(cpu),
		"peak_rss_mb": ss.value(rss),
	}
	summary(w, "setup_s", values["setup_s"], setups, "s")
	summary(w, "setup_s (raw wall)", median(setupsRaw), setupsRaw, "s")
	summary(w, "wall_s", values["wall_s"], ss.all(elapsed), "s")
	summary(w, "wall_s (raw wall)", ss.value(wall), ss.all(wall), "s")
	summary(w, "cpu_s", values["cpu_s"], ss.all(cpu), "s")
	summary(w, "peak_rss_mb", values["peak_rss_mb"], ss.all(rss), "MiB")

	defs := endToEnd
	if traced {
		lm, err := b.trace(s, median(figures(ss[s.seeds[0]], elapsed)))
		if err != nil {
			return result{}, err
		}
		values, defs = lm, perLayer
	}
	res := result{Correct: len(s.failures) == 0, Attempted: s.attempted, Failed: len(s.failures)}
	for _, f := range s.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED %s\n", w.name, f)
	}
	fmt.Printf("%-8s %-24s %g (%d/%d runs failed)\n", w.name, "fail_frac", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if res.Metrics, err = report(defs, values); err != nil {
		return result{}, err
	}
	if traced {
		for _, d := range defs {
			fmt.Printf("%-8s %-24s %g %s\n", w.name, d.Name, values[d.Name], d.Unit)
		}
	}
	prov, err := b.provenance(w, s)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("provenance %s\n", prov)
	return res, nil
}

// prime makes sure a store primed by one cold -all at seed exists, and
// gives the run its store for that seed. Primed stores are kept across
// runs under the work directory, keyed by the binary's hash, because
// priming costs a whole cold run; a shared-store run reads its own copy.
func (b *bench) prime(s *session, seed int64) error {
	cache := filepath.Join(b.work, "primed-"+b.binSum[:16], fmt.Sprintf("seed%d", seed))
	if _, err := os.Stat(cache); os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(cache), 0o755); err != nil {
			return err
		}
		tmp, err := os.MkdirTemp(filepath.Dir(cache), "tmp-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		prime := s.w.cfg.prime()
		want, err := b.sums.want(prime, seed)
		if err != nil {
			return err
		}
		c := runChild(s.ctx, b.bin, prime.args(seed, tmp))
		if !s.check(c, fmt.Sprintf("priming run (seed %d)", seed), want) {
			return fmt.Errorf("priming the store failed: %s", s.failures[len(s.failures)-1])
		}
		if err := os.Rename(tmp, cache); err != nil {
			if _, serr := os.Stat(cache); serr != nil {
				return err
			} // another run primed the same seed meanwhile
		}
	} else if err != nil {
		return err
	}
	s.stores[seed] = cache
	if s.w.cfg.store == sharedStore {
		s.stores[seed] = filepath.Join(s.dir, fmt.Sprintf("primed-seed%d", seed))
		return copyDir(cache, s.stores[seed])
	}
	return nil
}

// trace runs the traced in-process replay at the run's first program seed,
// checks its tables against the reference and its proofs with the kernel,
// and returns the per-layer metrics. untracedWall is the median untraced
// wall time at that seed.
func (b *bench) trace(s *session, untracedWall float64) (map[string]float64, error) {
	seed := s.seeds[0]
	want, err := b.sums.want(s.w.cfg, seed)
	if err != nil {
		return nil, err
	}
	sd, err := s.storeFor(seed)
	if err != nil {
		return nil, err
	}
	defer s.release(sd)
	rp, out, m, err := traceWorkload(s.w.cfg, seed, sd)
	s.attempted++
	if err != nil {
		s.failures = append(s.failures, fmt.Sprintf("traced run: %v", err))
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if sha256Hex([]byte(out)) != want {
		s.failures = append(s.failures, "traced run: tables differ from the untraced stdout")
	}
	m["eval.replay_fail"] = float64(rp.replayFailures())
	if m["eval.replay_fail"] > 0 {
		s.failures = append(s.failures, fmt.Sprintf("traced run: %g proved outcomes fail kernel replay", m["eval.replay_fail"]))
	}
	calls, secs := rp.promptPass()
	m["prompt.build_calls"], m["prompt.build_s"] = float64(calls), secs
	m["trace.overhead_s"] = m["trace.wall_s"] - untracedWall
	spans := filepath.Join(b.work, fmt.Sprintf("spans-%s-seed%d.jsonl", s.w.name, seed))
	if err := rp.tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d spans written to %s\n", s.w.name, len(rp.tr.spans), spans)
	return m, nil
}

// summary prints one end-to-end metric and the spread of the invocations
// it was computed from.
func summary(w workload, name string, v float64, xs []float64, unit string) {
	q1, q3 := quartiles(xs)
	fmt.Printf("%-8s %-24s %.4f %s (%d invocations: median %.4f, q1 %.4f, q3 %.4f, spread %.1f%%)\n",
		w.name, name, v, unit, len(xs), median(xs), q1, q3, 100*spread(xs))
}

// provenance says where and on what a result was measured, so results from
// different machines are compared explicitly.
func (b *bench) provenance(w workload, s *session) (string, error) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	p, err := json.Marshal(map[string]any{
		"workload":           w.name,
		"seed":               b.seed,
		"program_seeds":      s.seeds,
		"flags":              strings.Join(w.cfg.args(s.seeds[0], "<store>"), " "),
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go":                 runtime.Version(),
		"cpu":                cpuModel(),
		"commit":             commit,
		"experiments_sha256": b.binSum,
	})
	return string(p), err
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// record writes the stdout hash of every workload's reference invocation
// at every pool seed to path, in sha256sum format.
func (b *bench) record(path string) error {
	var lines []string
	for _, seed := range pool {
		done := map[config]bool{}
		for _, w := range workloads {
			ref := w.cfg.reference()
			if done[ref] {
				continue
			}
			done[ref] = true
			c := runChild(context.Background(), b.bin, ref.args(seed, ""))
			if c.err != nil {
				return c.err
			}
			lines = append(lines, sha256Hex(c.stdout)+"  "+ref.refName(seed))
			fmt.Println(lines[len(lines)-1])
		}
	}
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}
