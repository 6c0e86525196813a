package protocol

import (
	"errors"
	"fmt"
	"strconv"

	"llmfscq/internal/sexp"
	"llmfscq/internal/store"
)

// UnitRequest asks a worker to run one whole grid unit: the search of one
// corpus theorem with one model profile in one prompt setting. Key holds
// the unit's persistent outcome key (internal/store), which names the
// setting, variant, search algorithm, and hyperparameters; Corpus is the
// coordinator's corpus hash. A worker recomputes the key from its own
// corpus and configuration and refuses the request when they differ.
type UnitRequest struct {
	Corpus  [2]uint64
	Key     store.OutcomeKey
	Theorem string
	Model   string
}

// UnitHandler runs grid units for a Server's RunUnit op. It returns only
// what the proof store persists for a unit; an error wrapping ErrRefused
// declines the request (a configuration mismatch), any other error is
// reported in-band.
type UnitHandler interface {
	RunUnit(req UnitRequest) (store.OutcomeRec, error)
}

// ErrRefused marks a unit the worker declined rather than failed to
// transport: its corpus, hint split, profile calibration, or search
// configuration differs from the coordinator's, or it serves no units.
// Retrying cannot help; callers treat it as a configuration error.
var ErrRefused = errors.New("protocol: unit refused")

// hex128 renders a 128-bit hash as 32 hex digits.
func hex128(p [2]uint64) string { return fmt.Sprintf("%016x%016x", p[0], p[1]) }

func parseHex128(s string) ([2]uint64, error) {
	if len(s) != 32 {
		return [2]uint64{}, fmt.Errorf("want 32 hex digits, got %q", s)
	}
	hi, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return [2]uint64{}, err
	}
	lo, err := strconv.ParseUint(s[16:], 16, 64)
	if err != nil {
		return [2]uint64{}, err
	}
	return [2]uint64{hi, lo}, nil
}

// field returns the argument of the (name arg) child of a request or
// answer list, or nil.
func field(n *sexp.Node, name string) *sexp.Node {
	for i := 1; i < len(n.List); i++ {
		if c := n.List[i]; c.Head() == name {
			return c.Nth(1)
		}
	}
	return nil
}

func kv(name string, v *sexp.Node) *sexp.Node { return sexp.L(sexp.Sym(name), v) }

// encodeUnitRequest renders the (RunUnit ...) request.
func encodeUnitRequest(req UnitRequest) *sexp.Node {
	k := req.Key
	return sexp.L(sexp.Sym("RunUnit"),
		kv("Corpus", sexp.Str(hex128(req.Corpus))),
		kv("Env", sexp.Str(hex128(k.Env))),
		kv("Root", sexp.Str(hex128(k.Root))),
		kv("Profile", sexp.Str(fmt.Sprintf("%016x", k.Profile))),
		kv("Setting", sexp.Str(k.Setting)),
		kv("Variant", sexp.Str(k.Variant)),
		kv("Search", sexp.Str(k.Search)),
		kv("Width", sexp.Int(k.Width)),
		kv("Fuel", sexp.Int(k.Fuel)),
		kv("Seed", sexp.Str(strconv.FormatInt(k.Seed, 10))),
		kv("Theorem", sexp.Str(req.Theorem)),
		kv("Model", sexp.Str(req.Model)),
	)
}

// fieldReader decodes the (name arg) fields of a request, keeping the
// first error.
type fieldReader struct {
	n   *sexp.Node
	err error
}

func (r *fieldReader) fail(name string, err error) {
	if r.err == nil {
		r.err = fmt.Errorf("RunUnit: %s: %v", name, err)
	}
}

func (r *fieldReader) str(name string) string {
	v := field(r.n, name)
	if v == nil || v.IsList {
		r.fail(name, errors.New("missing or malformed"))
		return ""
	}
	return v.Atom
}

func (r *fieldReader) hash(name string) [2]uint64 {
	h, err := parseHex128(r.str(name))
	if err != nil {
		r.fail(name, err)
	}
	return h
}

func (r *fieldReader) hex64(name string) uint64 {
	v, err := strconv.ParseUint(r.str(name), 16, 64)
	if err != nil {
		r.fail(name, err)
	}
	return v
}

func (r *fieldReader) int(name string, bits int) int64 {
	v, err := strconv.ParseInt(r.str(name), 10, bits)
	if err != nil {
		r.fail(name, err)
	}
	return v
}

// parseUnitRequest decodes a (RunUnit ...) request; fields may come in any
// order, and every one is required.
func parseUnitRequest(msg *sexp.Node) (UnitRequest, error) {
	r := &fieldReader{n: msg}
	req := UnitRequest{
		Corpus: r.hash("Corpus"),
		Key: store.OutcomeKey{
			Env:     r.hash("Env"),
			Root:    r.hash("Root"),
			Profile: r.hex64("Profile"),
			Setting: r.str("Setting"),
			Variant: r.str("Variant"),
			Search:  r.str("Search"),
			Width:   int(r.int("Width", 32)),
			Fuel:    int(r.int("Fuel", 32)),
			Seed:    r.int("Seed", 64),
		},
		Theorem: r.str("Theorem"),
		Model:   r.str("Model"),
	}
	return req, r.err
}

// unitSum is the checksum of a unit answer. It covers the request as well
// as the record, so an answer can only be accepted for the request it was
// computed for, and any corruption of the record in transit that still
// parses is caught instead of becoming a verdict.
func unitSum(req UnitRequest, rec store.OutcomeRec) uint64 {
	msg := encodeUnitRequest(req).String() + "\x00" + strconv.Itoa(int(rec.Status)) + "\x00" +
		strconv.Itoa(rec.Queries) + "\x00" + rec.Proof
	h := uint64(14695981039346656037) // FNV-1a, 64-bit
	for i := 0; i < len(msg); i++ {
		h = (h ^ uint64(msg[i])) * 1099511628211
	}
	return h
}

// encodeUnitAnswer renders the (Unit ...) payload of a RunUnit answer.
func encodeUnitAnswer(req UnitRequest, rec store.OutcomeRec) *sexp.Node {
	return sexp.L(sexp.Sym("Unit"),
		kv("Status", sexp.Int(int(rec.Status))),
		kv("Queries", sexp.Int(rec.Queries)),
		kv("Proof", sexp.Str(rec.Proof)),
		kv("Sum", sexp.Str(fmt.Sprintf("%016x", unitSum(req, rec)))),
	)
}

// decodeUnitAnswer decodes the payload of a RunUnit answer for req. A
// (Refused ...) or (Error ...) payload yields an error wrapping ErrRefused;
// a payload that is malformed or fails its checksum yields one wrapping
// ErrBadMessage (a transport fault, to be retried). A record is returned
// only when its checksum verifies.
func decodeUnitAnswer(req UnitRequest, p *sexp.Node) (store.OutcomeRec, error) {
	switch p.Head() {
	case "Unit":
	case "Refused", "Error":
		msg := ""
		if a := p.Nth(1); a != nil {
			msg = a.Atom
		}
		return store.OutcomeRec{}, fmt.Errorf("%w: %s", ErrRefused, msg)
	default:
		return store.OutcomeRec{}, fmt.Errorf("%w: unexpected unit answer %.80s", ErrBadMessage, p)
	}
	bad := func(what string) (store.OutcomeRec, error) {
		return store.OutcomeRec{}, fmt.Errorf("%w: unit answer: %s", ErrBadMessage, what)
	}
	status, err := field(p, "Status").AsInt()
	if err != nil || status < 0 || status > 255 {
		return bad("bad Status")
	}
	queries, err := field(p, "Queries").AsInt()
	if err != nil || queries < 0 {
		return bad("bad Queries")
	}
	proof := field(p, "Proof")
	if proof == nil || proof.IsList || !proof.Str {
		return bad("bad Proof")
	}
	sumNode := field(p, "Sum")
	if sumNode == nil || sumNode.IsList || len(sumNode.Atom) != 16 {
		return bad("bad Sum")
	}
	sum, err := strconv.ParseUint(sumNode.Atom, 16, 64)
	if err != nil {
		return bad("bad Sum")
	}
	rec := store.OutcomeRec{Status: uint8(status), Queries: queries, Proof: proof.Atom}
	if unitSum(req, rec) != sum {
		return bad("checksum mismatch")
	}
	return rec, nil
}

// runUnit answers a (RunUnit ...) request through the server's handler.
func (s *session) runUnit(msg *sexp.Node) *sexp.Node {
	if s.units == nil {
		return sexp.L(sexp.Sym("Refused"), sexp.Str("this checkerd serves no units"))
	}
	req, err := parseUnitRequest(msg)
	if err != nil {
		return errPayload(err.Error())
	}
	rec, err := s.units.RunUnit(req)
	if errors.Is(err, ErrRefused) {
		return sexp.L(sexp.Sym("Refused"), sexp.Str(err.Error()))
	}
	if err != nil {
		return errPayload(err.Error())
	}
	return encodeUnitAnswer(req, rec)
}

// RunUnit asks the worker to run one whole grid unit and returns its
// checksummed record. Errors wrap ErrRefused (a configuration mismatch:
// do not retry) or are transport faults (ErrBadMessage for an answer that
// is garbled or fails its checksum, I/O errors otherwise).
func (c *Client) RunUnit(req UnitRequest) (store.OutcomeRec, error) {
	if err := c.deadline(); err != nil {
		return store.OutcomeRec{}, err
	}
	if err := WriteMsg(c.conn, encodeUnitRequest(req)); err != nil {
		return store.OutcomeRec{}, err
	}
	ans, err := ReadMsg(c.r)
	if err != nil {
		return store.OutcomeRec{}, err
	}
	if ans.Head() != "Answer" || len(ans.List) < 3 {
		return store.OutcomeRec{}, fmt.Errorf("%w: malformed answer %.80s", ErrBadMessage, ans)
	}
	return decodeUnitAnswer(req, ans.Nth(2))
}
