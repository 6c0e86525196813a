package eval

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"llmfscq/internal/checker"
	"llmfscq/internal/core"
	"llmfscq/internal/corpus"
	"llmfscq/internal/model"
	"llmfscq/internal/prompt"
	"llmfscq/internal/store"
	"llmfscq/internal/tactic"
)

// storeRunner builds a Runner wired to a persistent proof cache over the
// default corpus. The caller owns the cache lifecycle.
func storeRunner(t *testing.T, dir string, hash [2]uint64, mirrorDen int) (*Runner, *store.Cache) {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := store.OpenCache(store.CacheConfig{Dir: dir, CorpusHash: hash, MirrorDen: mirrorDen})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(c, 2025)
	r.Parallelism = 4
	r.ProofStore = pc
	return r, pc
}

func corpusHash(t *testing.T) [2]uint64 {
	t.Helper()
	files, err := corpus.Sources()
	if err != nil {
		t.Fatal(err)
	}
	return corpus.Hash(files)
}

// sweepSlice runs a small deterministic sweep and returns its outcomes
// sorted by theorem name.
func sweepSlice(t *testing.T, r *Runner) []Outcome {
	t.Helper()
	ths := r.TestSet()
	if len(ths) > 8 {
		ths = ths[:8]
	}
	outs := r.RunSweep(model.GPT4o, prompt.Hint, ths)
	sort.Slice(outs, func(i, j int) bool { return outs[i].Theorem < outs[j].Theorem })
	return outs
}

func finishRun(t *testing.T, r *Runner, pc *store.Cache) store.CacheStats {
	t.Helper()
	r.FlushProofStore()
	st := pc.Stats()
	if n := r.ProofStoreMismatches(); n != 0 {
		t.Fatalf("%d mirror mismatches on a clean run", n)
	}
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// The headline warm-start property: a warm re-sweep over the same corpus,
// seed, and settings must produce exactly the outcomes the cold sweep did,
// while answering from the store instead of searching.
func TestWarmSweepMatchesCold(t *testing.T) {
	dir := t.TempDir()
	hash := corpusHash(t)

	r1, pc1 := storeRunner(t, dir, hash, 16)
	cold := sweepSlice(t, r1)
	st1 := finishRun(t, r1, pc1)
	if st1.OutcomeHits != 0 {
		t.Fatalf("cold run reported %d outcome hits", st1.OutcomeHits)
	}
	if st1.Recorded == 0 {
		t.Fatal("cold run persisted nothing")
	}

	r2, pc2 := storeRunner(t, dir, hash, 16)
	warm := sweepSlice(t, r2)
	st2 := finishRun(t, r2, pc2)
	if st2.OutcomeHits == 0 {
		t.Fatal("warm run had zero outcome hits")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm sweep diverged from cold:\ncold %+v\nwarm %+v", cold, warm)
	}
}

// Flipping one byte of a corpus source changes the content hash that
// prefixes every store key, so a warm open over the edited corpus is a
// full miss — invalidation by construction, no epochs to bump.
func TestCorpusByteFlipIsFullMiss(t *testing.T) {
	dir := t.TempDir()
	hash := corpusHash(t)

	r1, pc1 := storeRunner(t, dir, hash, 16)
	cold := sweepSlice(t, r1)
	finishRun(t, r1, pc1)

	flipped := hash
	flipped[0] ^= 1 // what corpus.Hash returns after any one-byte source edit
	r2, pc2 := storeRunner(t, dir, flipped, 16)
	miss := sweepSlice(t, r2)
	st := finishRun(t, r2, pc2)
	if st.OutcomeHits != 0 {
		t.Fatalf("edited corpus still hit %d outcomes", st.OutcomeHits)
	}
	if !reflect.DeepEqual(cold, miss) {
		t.Fatal("full-miss sweep should recompute the same outcomes live")
	}
}

// Stores written while the proof store still had a Try tier hold raw
// 'T'-prefixed records (negative tactic verdicts) beside the outcome
// records. Such a store must stay valid: it opens, serves every outcome,
// and its Try records count for nothing. The store here is assembled
// record by record through the raw layer, exactly as those versions laid
// it out.
func TestStoreWithTryRecordsStillServes(t *testing.T) {
	hash := corpusHash(t)
	coldDir, dir := t.TempDir(), t.TempDir()
	r1, pc1 := storeRunner(t, coldDir, hash, 0)
	cold := sweepSlice(t, r1)
	finishRun(t, r1, pc1)

	src, err := store.Open(store.Options{Dir: coldDir})
	if err != nil {
		t.Fatal(err)
	}
	recs := map[string][]byte{}
	src.Range(func(key string, val []byte, _ int64) {
		if len(key) > 0 && key[0] == 'O' {
			recs[key] = append([]byte(nil), val...)
		}
	})
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(cold) {
		t.Fatalf("cold run persisted %d outcome records for %d searches", len(recs), len(cold))
	}

	// The Try record layout: 'T' | corpus hash | env fingerprint | parent
	// state StrictKey | sentence, valued status byte | checker message.
	th := r1.TestSet()[0]
	env := r1.RestrictEnv(th)
	tkey := []byte{'T'}
	for _, p := range [][2]uint64{hash, r1.envFingerprint(th), tactic.NewState(env, th.Stmt).StrictKey()} {
		tkey = binary.BigEndian.AppendUint64(tkey, p[0])
		tkey = binary.BigEndian.AppendUint64(tkey, p[1])
	}
	tkey = append(tkey, "discriminate."...)
	raw, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Put(tkey, append([]byte{byte(checker.Rejected)}, "no discriminable equality"...)); err != nil {
		t.Fatal(err)
	}
	for k, v := range recs {
		if err := raw.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}

	// MirrorDen 0: every outcome comes from rebuildOutcome, none from a
	// live search.
	r2, pc2 := storeRunner(t, dir, hash, 0)
	warm := sweepSlice(t, r2)
	st := finishRun(t, r2, pc2)
	if st.OutcomeHits != int64(len(recs)) || st.OutcomeMisses != 0 {
		t.Fatalf("outcome hits/misses = %d/%d; want %d/0", st.OutcomeHits, st.OutcomeMisses, len(recs))
	}
	if st.TryWarmed != 0 || st.Recorded != 0 || st.MirrorChecks != 0 {
		t.Fatalf("Try record was not inert: %+v", st)
	}
	if st.Store.Entries != len(recs)+1 {
		t.Fatalf("store holds %d live records; want %d outcomes + 1 Try", st.Store.Entries, len(recs))
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm sweep over the legacy store diverged from cold:\ncold %+v\nwarm %+v", cold, warm)
	}
}

// Crash-safety end to end: truncating the tail record of the last segment
// (a torn mid-write) must not poison the store — it reopens, drops the
// torn record, the next sweep backfills it, and every table stays
// byte-identical to the cold run.
func TestTornTailBackfillsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	hash := corpusHash(t)

	r1, pc1 := storeRunner(t, dir, hash, 16)
	cold := sweepSlice(t, r1)
	finishRun(t, r1, pc1)

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written: %v", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	r2, pc2 := storeRunner(t, dir, hash, 16)
	warm := sweepSlice(t, r2)
	st := finishRun(t, r2, pc2)
	if st.Store.TornDropped == 0 {
		t.Fatal("truncated tail record not detected")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("post-truncation sweep diverged from cold run")
	}

	// The re-sweep recomputed and re-recorded the torn entry; a third run
	// is fully warm again.
	r3, pc3 := storeRunner(t, dir, hash, 16)
	again := sweepSlice(t, r3)
	st3 := finishRun(t, r3, pc3)
	if st3.OutcomeMisses != 0 {
		t.Fatalf("backfill incomplete: %d outcome misses after re-sweep", st3.OutcomeMisses)
	}
	if !reflect.DeepEqual(cold, again) {
		t.Fatal("backfilled sweep diverged from cold run")
	}
}

// tamperOutcomes rewrites every outcome record ('O' namespace) of the
// store at dir in place through the raw store; edit returns the new value
// (status(1) | queries(u32) | proof), or nil to leave a record alone. It
// returns how many records it rewrote.
func tamperOutcomes(t *testing.T, dir string, edit func(val []byte) []byte) int {
	t.Helper()
	raw, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	type kv struct {
		key string
		val []byte
	}
	var tampered []kv
	raw.Range(func(key string, val []byte, ts int64) {
		if len(key) == 0 || key[0] != 'O' || len(val) < 5 {
			return
		}
		if v := edit(append([]byte(nil), val...)); v != nil {
			tampered = append(tampered, kv{key, v})
		}
	})
	for _, e := range tampered {
		if err := raw.Put([]byte(e.key), e.val); err != nil {
			t.Fatal(err)
		}
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}
	return len(tampered)
}

// The store is an untrusted outcome source: tamper with persisted outcomes
// on disk and a warm run must catch it and still return the live results,
// never the corrupt ones.
func TestMirrorCatchesTamperedRecord(t *testing.T) {
	// A bumped query count is invisible to the kernel; with MirrorDen=1
	// every hit is recomputed live, and the sample catches it.
	t.Run("mirror", func(t *testing.T) {
		dir := t.TempDir()
		hash := corpusHash(t)
		r1, pc1 := storeRunner(t, dir, hash, 1)
		cold := sweepSlice(t, r1)
		finishRun(t, r1, pc1)

		n := tamperOutcomes(t, dir, func(v []byte) []byte {
			v[4]++
			return v
		})
		if n == 0 {
			t.Fatal("no outcome records to tamper with")
		}

		r2, pc2 := storeRunner(t, dir, hash, 1)
		warm := sweepSlice(t, r2)
		r2.FlushProofStore()
		if n := r2.ProofStoreMismatches(); n == 0 {
			t.Fatal("tampered records passed the mirror cross-check")
		}
		if err := pc2.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Fatal("mirrored run must return live results, not tampered ones")
		}
	})

	// With the mirror off, a Proved record whose script lost its closing
	// sentence still cannot count: certification replays every Proved
	// hit through the kernel, recomputes the unit, and counts the failure.
	t.Run("replay", func(t *testing.T) {
		dir := t.TempDir()
		hash := corpusHash(t)
		r1, pc1 := storeRunner(t, dir, hash, 0)
		cold := sweepSlice(t, r1)
		finishRun(t, r1, pc1)

		n := tamperOutcomes(t, dir, func(v []byte) []byte {
			if core.Status(v[0]) != core.Proved {
				return nil
			}
			proof := strings.TrimSuffix(string(v[5:]), ".")
			cut := strings.LastIndex(proof, ".") + 1
			return append(v[:5], strings.TrimSpace(proof[:cut])...)
		})
		if n == 0 {
			t.Fatal("no Proved outcome records to tamper with")
		}

		r2, pc2 := storeRunner(t, dir, hash, 0)
		warm := sweepSlice(t, r2)
		st := finishRun(t, r2, pc2)
		if st.MirrorChecks != 0 {
			t.Fatalf("%d mirror checks with the mirror off", st.MirrorChecks)
		}
		if got := r2.ReplayFailures(); got != int64(n) {
			t.Fatalf("ReplayFailures = %d; want one per tampered Proved record (%d)", got, n)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("tampered proofs reached the tables:\ncold %+v\nwarm %+v", cold, warm)
		}
	})
}
