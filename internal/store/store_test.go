package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openT(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%+v): %v", opts, err)
	}
	return s
}

func closeT(t *testing.T, s *Store) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRoundtripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	if err := s.Put([]byte("alpha"), []byte("one")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put([]byte("beta"), []byte("two")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put([]byte("alpha"), []byte("one-v2")); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	closeT(t, s)

	s2 := openT(t, Options{Dir: dir})
	defer closeT(t, s2)
	if got, ok := s2.Get([]byte("alpha")); !ok || string(got) != "one-v2" {
		t.Fatalf("alpha = %q,%v; want one-v2 (last writer wins)", got, ok)
	}
	if got, ok := s2.Get([]byte("beta")); !ok || string(got) != "two" {
		t.Fatalf("beta = %q,%v; want two", got, ok)
	}
	if s2.Len() != 2 {
		t.Fatalf("Len = %d; want 2", s2.Len())
	}
}

func TestAppendBatchDedupsIdenticalValues(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	defer closeT(t, s)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	before := s.Stats().DiskBytes
	// Re-appending the identical value is the warm-run backfill case: it
	// must be a no-op on disk.
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put dup: %v", err)
	}
	if after := s.Stats().DiskBytes; after != before {
		t.Fatalf("identical re-append grew disk: %d -> %d", before, after)
	}
	if got := s.Stats().Appends; got != 1 {
		t.Fatalf("Appends = %d; want 1", got)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir, SegmentBytes: 256})
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%03d", i)
		if err := s.Put([]byte(key), bytes.Repeat([]byte{'x'}, 32)); err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
	}
	if segs := s.Stats().Segments; segs < 2 {
		t.Fatalf("Segments = %d; want rotation (>= 2)", segs)
	}
	closeT(t, s)

	s2 := openT(t, Options{Dir: dir, SegmentBytes: 256})
	defer closeT(t, s2)
	if s2.Len() != 40 {
		t.Fatalf("reopened Len = %d; want 40", s2.Len())
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%03d", i)
		if _, ok := s2.Get([]byte(key)); !ok {
			t.Fatalf("missing %s after rotation+reopen", key)
		}
	}
}

// lastSegPath returns the path of the highest-numbered segment.
func lastSegPath(t testing.TB, dir string) string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(des) == 0 {
		t.Fatal("no segments")
	}
	return filepath.Join(dir, des[len(des)-1].Name())
}

func TestTornTailTruncatedAndBackfilled(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	if err := s.Put([]byte("keep"), []byte("safe")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put([]byte("torn"), []byte("lost-by-crash")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	closeT(t, s)

	// Simulate a crash mid-append: chop the last few bytes of the final
	// record so its frame no longer parses.
	path := lastSegPath(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatalf("Truncate: %v", err)
	}

	s2 := openT(t, Options{Dir: dir})
	if _, ok := s2.Get([]byte("keep")); !ok {
		t.Fatal("record before the torn tail was lost")
	}
	if _, ok := s2.Get([]byte("torn")); ok {
		t.Fatal("torn record served despite bad frame")
	}
	if got := s2.Stats().TornDropped; got != 1 {
		t.Fatalf("TornDropped = %d; want 1", got)
	}
	// The store must have truncated the torn bytes so new appends land on a
	// clean frame; backfilling the record makes it durable again.
	if err := s2.Put([]byte("torn"), []byte("lost-by-crash")); err != nil {
		t.Fatalf("backfill Put: %v", err)
	}
	closeT(t, s2)

	s3 := openT(t, Options{Dir: dir})
	defer closeT(t, s3)
	if got, ok := s3.Get([]byte("torn")); !ok || string(got) != "lost-by-crash" {
		t.Fatalf("backfilled record = %q,%v; want lost-by-crash", got, ok)
	}
	if got := s3.Stats().TornDropped; got != 0 {
		t.Fatalf("TornDropped after repair = %d; want 0", got)
	}
}

func TestMidSegmentCorruptionAbandonsRemainder(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put([]byte(k), []byte("val-"+k)); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
	}
	closeT(t, s)

	// Flip one payload byte of the middle record: its CRC fails, and the
	// scanner cannot trust any later frame in the segment.
	path := lastSegPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	idx := bytes.Index(data, []byte("val-b"))
	if idx < 0 {
		t.Fatal("middle record not found")
	}
	data[idx] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	s2 := openT(t, Options{Dir: dir})
	defer closeT(t, s2)
	if _, ok := s2.Get([]byte("a")); !ok {
		t.Fatal("record before corruption was lost")
	}
	if _, ok := s2.Get([]byte("b")); ok {
		t.Fatal("corrupt record served")
	}
	if _, ok := s2.Get([]byte("c")); ok {
		t.Fatal("record after corruption served (no trustworthy frame)")
	}
	if got := s2.Stats().CorruptDropped; got != 1 {
		t.Fatalf("CorruptDropped = %d; want 1", got)
	}
}

func TestTTLExpiry(t *testing.T) {
	dir := t.TempDir()
	clock := time.Unix(1_000_000, 0)
	now := func() time.Time { return clock }
	s := openT(t, Options{Dir: dir, TTL: time.Hour, Now: now})
	if err := s.Put([]byte("old"), []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	closeT(t, s)

	clock = clock.Add(2 * time.Hour)
	s2 := openT(t, Options{Dir: dir, TTL: time.Hour, Now: now})
	defer closeT(t, s2)
	if _, ok := s2.Get([]byte("old")); ok {
		t.Fatal("expired record served")
	}
	if got := s2.Stats().Expired; got != 1 {
		t.Fatalf("Expired = %d; want 1", got)
	}
}

func TestMaxBytesEvictsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	clock := time.Unix(1_000_000, 0)
	now := func() time.Time { return clock }
	s := openT(t, Options{Dir: dir, Now: now})
	big := bytes.Repeat([]byte{'z'}, 64)
	for i := 0; i < 8; i++ {
		clock = clock.Add(time.Second) // distinct timestamps: age order is real
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), big); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	closeT(t, s)

	// Reopen with a bound that holds roughly half the records.
	s2 := openT(t, Options{Dir: dir, MaxBytes: 4 * recSize("k0", big), Now: now})
	defer closeT(t, s2)
	if got := s2.Stats().Evicted; got == 0 {
		t.Fatal("no evictions under MaxBytes bound")
	}
	if _, ok := s2.Get([]byte("k0")); ok {
		t.Fatal("oldest record survived eviction")
	}
	if _, ok := s2.Get([]byte("k7")); !ok {
		t.Fatal("newest record evicted")
	}
}

func TestForeignGenerationColdStarts(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	closeT(t, s)

	path := lastSegPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(magic)+3]++ // bump the generation field
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	s2 := openT(t, Options{Dir: dir})
	defer closeT(t, s2)
	if s2.Len() != 0 {
		t.Fatalf("Len = %d after generation bump; want cold start", s2.Len())
	}
	if got := s2.Stats().GenerationSkips; got != 1 {
		t.Fatalf("GenerationSkips = %d; want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("foreign segment not removed: %v", err)
	}
}

func TestReadOnly(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir})
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	closeT(t, s)

	// Tear the tail; read-only open must serve what it can without
	// repairing the file on disk.
	path := lastSegPath(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if err := os.Truncate(path, fi.Size()-2); err != nil {
		t.Fatalf("Truncate: %v", err)
	}

	ro := openT(t, Options{Dir: dir, ReadOnly: true})
	defer closeT(t, ro)
	if err := ro.Put([]byte("x"), []byte("y")); err == nil {
		t.Fatal("Put succeeded on read-only store")
	}
	fi2, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat after RO open: %v", err)
	}
	if fi2.Size() != fi.Size()-2 {
		t.Fatalf("read-only open changed the file: %d -> %d", fi.Size()-2, fi2.Size())
	}

	// A read-only open of a nonexistent directory is an empty store.
	empty := openT(t, Options{Dir: filepath.Join(dir, "missing"), ReadOnly: true})
	defer closeT(t, empty)
	if empty.Len() != 0 {
		t.Fatalf("missing-dir RO store Len = %d; want 0", empty.Len())
	}
}

func TestCompactionKeepsLiveSetAndIsDeterministic(t *testing.T) {
	write := func(dir string) {
		s := openT(t, Options{Dir: dir, SegmentBytes: 128, Now: func() time.Time { return time.Unix(42, 0) }})
		for i := 0; i < 10; i++ {
			if err := s.Put([]byte(fmt.Sprintf("k%d", i%3)), []byte(fmt.Sprintf("gen-%d", i))); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		if err := s.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		closeT(t, s)
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	write(dirA)
	write(dirB)

	s := openT(t, Options{Dir: dirA, Now: func() time.Time { return time.Unix(43, 0) }})
	defer closeT(t, s)
	if s.Len() != 3 {
		t.Fatalf("Len after compaction = %d; want 3", s.Len())
	}
	for k, want := range map[string]string{"k0": "gen-9", "k1": "gen-7", "k2": "gen-8"} {
		if got, ok := s.Get([]byte(k)); !ok || string(got) != want {
			t.Fatalf("%s = %q,%v; want %q", k, got, ok, want)
		}
	}

	// Same live set + same clock → byte-identical compacted segments.
	bytesA, err := os.ReadFile(lastSegPath(t, dirA))
	if err != nil {
		t.Fatalf("ReadFile A: %v", err)
	}
	bytesB, err := os.ReadFile(lastSegPath(t, dirB))
	if err != nil {
		t.Fatalf("ReadFile B: %v", err)
	}
	if !bytes.Equal(bytesA, bytesB) {
		t.Fatal("compaction output not deterministic for identical content")
	}
}
