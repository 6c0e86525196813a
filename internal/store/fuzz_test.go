package store

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// validFrames is an independent reading of the segment format: the records
// of every checksummed frame up to the first bad one, later keys replacing
// earlier ones. Nil for a segment whose header is not this generation's.
func validFrames(data []byte) map[string]string {
	if len(data) < headerSize || string(data[:len(magic)]) != magic ||
		binary.BigEndian.Uint32(data[len(magic):]) != Generation {
		return nil
	}
	recs := map[string]string{}
	for off := headerSize; len(data)-off >= recHeader; {
		length := uint64(binary.BigEndian.Uint32(data[off:]))
		if length < 8 || uint64(len(data)-off-recHeader) < length {
			break
		}
		payload := data[off+recHeader : off+recHeader+int(length)]
		if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(data[off+4:]) {
			break
		}
		klen := uint64(binary.BigEndian.Uint32(payload[4:]))
		if 8+klen > length {
			break
		}
		recs[string(payload[8:8+klen])] = string(payload[8+klen:])
		off += recHeader + int(length)
	}
	return recs
}

// records reads a store's live set.
func records(s *Store) map[string]string {
	out := map[string]string{}
	s.Range(func(key string, val []byte, _ int64) { out[key] = string(val) })
	return out
}

// FuzzSegment opens arbitrary bytes as a store segment, read-only and
// read-write. Opening never panics, and the records it yields are exactly
// those of the checksummed frames before the first torn or corrupt one —
// never a record whose CRC fails. A read-write open truncates the bad tail,
// so reopening yields the same records again.
func FuzzSegment(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(Options{Dir: dir, TTL: -1, MaxBytes: -1})
	if err != nil {
		f.Fatal(err)
	}
	for _, kv := range [][2]string{{"Okey", "outcome"}, {"Tkey", "try"}, {"Okey", "replaced"}, {"", "empty key"}} {
		if err := s.Put([]byte(kv[0]), []byte(kv[1])); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(lastSegPath(f, dir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])            // torn tail
	f.Add(seg[:headerSize])            // header only
	f.Add(seg[:headerSize-1])          // truncated header
	f.Add(append([]byte(nil), seg...)) // mutated below by the fuzzer
	flipped := append([]byte(nil), seg...)
	flipped[headerSize+recHeader+9] ^= 1 // corrupt the first record
	f.Add(flipped)
	f.Add([]byte("LFSQPRF\n\x00\x00\x00\x02\x00\x00\x00\x00")) // foreign generation
	f.Add([]byte("LFSQPRF\n\x00\x00\x00\x01\x00\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want := validFrames(data)
		if want == nil {
			want = map[string]string{}
		}
		for _, ro := range []bool{true, false} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			// The second pass reopens what the first left behind: the
			// file as written (read-only) or as repaired (read-write).
			for pass := 0; pass < 2; pass++ {
				s, err := Open(Options{Dir: dir, ReadOnly: ro, TTL: -1, MaxBytes: -1})
				if err != nil {
					t.Fatalf("open (read-only %v): %v", ro, err)
				}
				if got := records(s); !reflect.DeepEqual(got, want) {
					t.Fatalf("open (read-only %v, pass %d) yielded %q, want the checksummed frames %q", ro, pass, got, want)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// FuzzOutcomeRec drives the outcome-record codec from both ends. Any
// (status, queries, proof) either round-trips exactly through RecordOutcome
// → Flush → LookupOutcome or — for a query count its 32-bit field cannot
// hold — is dropped and counted, never stored wrapped. Arbitrary bytes
// stored under an outcome key never panic the decoder: shorter than the
// 5-byte header they miss, otherwise they decode to the fields they spell,
// and re-recording the decoded record writes the same bytes back.
func FuzzOutcomeRec(f *testing.F) {
	f.Add(uint8(0), int64(17), "intros.\nauto.", []byte{0, 0, 0, 0, 17, 'a'})
	f.Add(uint8(2), int64(128), "", []byte{})
	f.Add(uint8(255), int64(math.MaxUint32), "x", []byte{1, 2, 3, 4})
	f.Add(uint8(1), int64(-1), "\x00\xff", []byte{9, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(1), int64(math.MaxUint32)+1, "", []byte{0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, status uint8, queries int64, proof string, raw []byte) {
		c := openCacheT(t, CacheConfig{Dir: t.TempDir(), CorpusHash: testCorpus})
		defer closeCacheT(t, c)
		k := testOutcomeKey()
		rec := OutcomeRec{Status: status, Queries: int(queries), Proof: proof}
		c.RecordOutcome(k, rec)
		c.Flush()
		got, ok := c.LookupOutcome(k)
		if queries < 0 || queries > math.MaxUint32 {
			if ok || c.Stats().Dropped != 1 {
				t.Fatalf("out-of-range queries %d: lookup %+v %v, dropped %d; want a counted drop", queries, got, ok, c.Stats().Dropped)
			}
		} else if !ok || got != rec {
			t.Fatalf("round trip of %+v gave %+v %v", rec, got, ok)
		}

		k.Variant = "raw"
		key := c.outcomeKeyBytes(k)
		if err := c.st.Put(key, raw); err != nil {
			t.Fatal(err)
		}
		got, ok = c.LookupOutcome(k)
		if len(raw) < 5 {
			if ok {
				t.Fatalf("%d-byte value decoded as %+v", len(raw), got)
			}
			return
		}
		want := OutcomeRec{Status: raw[0], Queries: int(binary.BigEndian.Uint32(raw[1:])), Proof: string(raw[5:])}
		if !ok || got != want {
			t.Fatalf("value %x decoded as %+v %v; want %+v", raw, got, ok, want)
		}
		k.Variant = "re-recorded"
		c.RecordOutcome(k, got)
		c.Flush()
		if back, ok := c.st.Get(c.outcomeKeyBytes(k)); !ok || string(back) != string(raw) {
			t.Fatalf("re-recording %+v wrote %x; want %x", got, back, raw)
		}
	})
}
