package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// storeMode says whether a workload runs against a persistent proof store
// and how often it copies it.
type storeMode int

const (
	noStore storeMode = iota
	// sharedStore: a run's invocations share one copy of the primed store
	// (they write nothing).
	sharedStore
	// freshStore: every invocation gets a fresh copy of the primed store,
	// because it appends to it.
	freshStore
)

// config is the subset of cmd/experiments flags that defines a workload.
// No mode knob (-try-cache, -intern, -search-arena, ...) is ever passed, so
// the program's defaults are what is measured.
type config struct {
	all     bool   // -all; otherwise -fig1a
	fuel    int    // -fuel (0: the program's default of 128)
	model   string // -model substring filter ("": every model)
	workers int    // -workers loopback checkerd fleet (0: in-process)
	store   storeMode
}

type workload struct {
	name string
	cfg  config
	// seeds caps how many program seeds one run cycles through (0: as
	// many as its invocations reach). Store workloads need a primed store
	// per seed, so they use few.
	seeds int
}

// workloads are the benchmark's four inputs. BENCHMARK.json records why
// each was chosen; the comments say which layer each one isolates.
var workloads = []workload{
	// The whole grid, no store: model proposal and tactic execution.
	{"cold", config{all: true}, 0},
	// The same grid answered from a store primed by one cold run: store
	// open/read and corpus load.
	{"warm", config{all: true, store: sharedStore}, 6},
	// A retuned query limit against the primed store: the grid misses and
	// appends, the ablation keys hit.
	{"retune", config{all: true, fuel: 64, store: freshStore}, 6},
	// GPT-4o and GPT-4o mini through two loopback checkerd workers over
	// the batched wire: sweep, remote, protocol and sexp.
	{"fleet", config{model: "GPT-4o", workers: 2}, 0},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pool is the suite of program seeds (cmd/experiments -seed) the benchmark
// draws its inputs from; reference/sha256sums holds the expected stdout of
// every workload at each of them. How much work -all does varies by about
// 15% between seeds (interquartile range of tactic executions and
// allocation over seeds 1-6), so one run measures several seeds rather
// than one.
var pool = []int64{2025, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// programSeeds returns the run's sequence of program seeds: the pool in an
// order drawn from the workload seed, cut to max entries (0: all).
func programSeeds(seed int64, max int) []int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(len(pool))
	if max > 0 && max < len(perm) {
		perm = perm[:max]
	}
	out := make([]int64, len(perm))
	for i, p := range perm {
		out[i] = pool[p]
	}
	return out
}

// noModel matches no model profile, so an invocation with it selects no
// grid job and measures only set-up.
const noModel = "(none)"

// args renders the flags of one invocation. storeDir is used when the
// config has a store.
func (c config) args(seed int64, storeDir string) []string {
	a := []string{"-fig1a"}
	if c.all {
		a = []string{"-all"}
	}
	if c.fuel != 0 {
		a = append(a, "-fuel", strconv.Itoa(c.fuel))
	}
	if c.model != "" {
		a = append(a, "-model", c.model)
	}
	if c.workers != 0 {
		a = append(a, "-workers", strconv.Itoa(c.workers))
	}
	if c.store != noStore {
		a = append(a, "-proof-cache", storeDir)
	}
	return append(a, "-seed", strconv.FormatInt(seed, 10))
}

// setup is the invocation with the same flags that selects no grid job:
// corpus load and proof check, the hint split, store open and fleet spawn,
// then exit.
func (c config) setup() config {
	c.all = false
	c.model = noModel
	return c
}

// reference is the in-process, storeless invocation whose stdout this
// config must reproduce byte for byte.
func (c config) reference() config {
	c.store = noStore
	c.workers = 0
	return c
}

// prime is the cold run whose results fill the store of a store workload.
func (c config) prime() config {
	return config{all: true, store: c.store}
}

// refName names a reference output: the storeless flags and the seed.
func (c config) refName(seed int64) string {
	name := "fig1a"
	if c.all {
		name = "all"
	}
	if c.fuel != 0 {
		name += "-fuel" + strconv.Itoa(c.fuel)
	}
	if c.model != "" {
		name += "-" + c.model
	}
	return fmt.Sprintf("%s.seed%d", name, seed)
}

// references maps a reference name to the SHA-256 of its recorded stdout.
type references map[string]string

// loadReferences reads a file in sha256sum format ("<hex>  <name>").
func loadReferences(path string) (references, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	refs := references{}
	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok || len(sum) != 64 {
			return nil, fmt.Errorf("%s:%d: want \"<sha256>  <name>\"", path, i+1)
		}
		refs[name] = sum
	}
	return refs, nil
}

// want returns the expected stdout hash of c's reference at seed.
func (r references) want(c config, seed int64) (string, error) {
	name := c.reference().refName(seed)
	if sum, ok := r[name]; ok {
		return sum, nil
	}
	return "", fmt.Errorf("no recorded reference %s", name)
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// copyDir copies the regular files of a flat directory (a store's segment
// files) into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy store: %s is not a regular file", e.Name())
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
