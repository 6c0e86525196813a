package protocol

import (
	"errors"
	"net"
	"strconv"
	"strings"
	"testing"

	"llmfscq/internal/sexp"
	"llmfscq/internal/store"
)

var testUnitReq = UnitRequest{
	Corpus: [2]uint64{0x0123456789abcdef, 0xfedcba9876543210},
	Key: store.OutcomeKey{
		Env:     [2]uint64{1, 2},
		Root:    [2]uint64{3, 4},
		Profile: 0xdeadbeef,
		Setting: "hint",
		Variant: "std",
		Search:  "best-first",
		Width:   8,
		Fuel:    128,
		Seed:    -2025,
	},
	Theorem: "app_nil_r",
	Model:   "GPT-4o",
}

var testUnitRec = store.OutcomeRec{Status: 0, Queries: 7, Proof: "induction l. reflexivity. simpl. rewrite IHl. reflexivity."}

// unitFunc adapts a function to UnitHandler.
type unitFunc func(UnitRequest) (store.OutcomeRec, error)

func (f unitFunc) RunUnit(req UnitRequest) (store.OutcomeRec, error) { return f(req) }

func startUnitServer(t *testing.T, h UnitHandler) string {
	t.Helper()
	srv := NewServer(nil)
	srv.Units = h
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	return addr
}

func dialClient(t *testing.T, addr string) *Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn)
	t.Cleanup(func() { cl.Close() })
	return cl
}

// The request survives the wire intact, the record comes back intact, and
// a refusal or an in-band error surfaces as ErrRefused.
func TestRunUnitRoundTrip(t *testing.T) {
	var seen UnitRequest
	addr := startUnitServer(t, unitFunc(func(req UnitRequest) (store.OutcomeRec, error) {
		seen = req
		switch req.Theorem {
		case "drifted":
			return store.OutcomeRec{}, errors.Join(ErrRefused, errors.New("hint split differs"))
		case "broken":
			return store.OutcomeRec{}, errors.New("worker exploded")
		}
		return testUnitRec, nil
	}))
	cl := dialClient(t, addr)
	rec, err := cl.RunUnit(testUnitReq)
	if err != nil {
		t.Fatal(err)
	}
	if seen != testUnitReq {
		t.Fatalf("request changed on the wire:\n%+v\nvs\n%+v", seen, testUnitReq)
	}
	if rec != testUnitRec {
		t.Fatalf("record changed on the wire: %+v", rec)
	}
	for _, name := range []string{"drifted", "broken"} {
		req := testUnitReq
		req.Theorem = name
		if _, err := cl.RunUnit(req); !errors.Is(err, ErrRefused) {
			t.Fatalf("%s: err = %v, want ErrRefused", name, err)
		}
	}
	// The session survives refusals.
	if _, err := cl.RunUnit(testUnitReq); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnitWithoutHandlerIsRefused(t *testing.T) {
	cl := dialClient(t, startUnitServer(t, nil))
	_, err := cl.RunUnit(testUnitReq)
	if !errors.Is(err, ErrRefused) || !strings.Contains(err.Error(), "serves no units") {
		t.Fatalf("err = %v, want a no-handler refusal", err)
	}
}

// An answer only verifies for the request it was computed for.
func TestUnitAnswerBoundToRequest(t *testing.T) {
	payload := encodeUnitAnswer(testUnitReq, testUnitRec)
	if _, err := decodeUnitAnswer(testUnitReq, payload); err != nil {
		t.Fatal(err)
	}
	other := testUnitReq
	other.Key.Seed++
	if _, err := decodeUnitAnswer(other, payload); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("answer accepted for another request: %v", err)
	}
}

// FuzzUnitAnswer feeds arbitrary bytes to the unit-answer decoder, as a
// client reads them off the wire: it never panics, a record comes back
// only when the answer's checksum verifies for the request, and every
// failure is either a refusal or a transport fault to retry.
func FuzzUnitAnswer(f *testing.F) {
	valid := Answer(1, encodeUnitAnswer(testUnitReq, testUnitRec)).String() + "\n"
	f.Add(valid)
	f.Add(strings.Replace(valid, "(Queries 7)", "(Queries 8)", 1))
	f.Add(strings.Replace(valid, "reflexivity", "REFLEXIVITY", 1))
	f.Add(Answer(2, encodeUnitAnswer(testUnitReq, store.OutcomeRec{Status: 1, Queries: 128})).String() + "\n")
	f.Add("(Answer 3 (Refused \"hint split differs\"))\n")
	f.Add("(Answer 3 (Error \"no open document\"))\n")
	f.Add("(Answer 4 (Unit (Status -1) (Queries 1) (Proof \"\") (Sum \"0000000000000000\")))\n")
	f.Add("(Answer 4 (Unit))\n")
	f.Add("(Answer 4 (Unit (Status 300) (Queries x) (Proof (L)) (Sum 12)))\n")
	f.Add("\x08aNSWER\x00\x11\x00\x08uNIT\n")
	f.Fuzz(func(t *testing.T, data string) {
		msg, _, perr := sexp.Parse(data)
		if perr != nil || msg.Head() != "Answer" {
			return // the client's reader rejects these before decoding
		}
		rec, err := decodeUnitAnswer(testUnitReq, msg.Nth(2))
		if err != nil {
			if !errors.Is(err, ErrRefused) && !errors.Is(err, ErrBadMessage) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			if rec != (store.OutcomeRec{}) {
				t.Fatalf("record %+v returned with error %v", rec, err)
			}
			return
		}
		sum, perr := strconv.ParseUint(field(msg.Nth(2), "Sum").Atom, 16, 64)
		if perr != nil || sum != unitSum(testUnitReq, rec) {
			t.Fatalf("record %+v accepted without a verifying checksum", rec)
		}
	})
}
