package server

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/dna"
)

// maxPresize caps how far a request's Content-Length may pre-size its body
// buffer. Past it the buffer grows as bytes arrive, so a client that
// announces a large body cannot make the server allocate it up front.
const maxPresize = 1 << 20

// parseRequest reads the body once, under the MaxBodyBytes cap, and decodes,
// bounds and validates it, returning the batch and the effective deadline,
// or the HTTP status + error code to reject with. scanAlign decodes the
// canonical body shape; any other body, and any body that fails one of its
// checks, goes to decodeAlign, which decodes the same bytes the general way
// and so gives every such body its answer, error text included.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (pairs []dna.Pair, timeout time.Duration, status int, code string, err error) {
	// MinRead more is room to read the EOF without growing.
	presize := min(max(r.ContentLength, 0), maxPresize) + bytes.MinRead
	body := bytes.NewBuffer(make([]byte, 0, presize))
	_, readErr := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if readErr == nil {
		if pairs, ms, ok := scanAlign(body.Bytes(), s.cfg.MaxPairs, s.cfg.MaxSeqLen); ok {
			return pairs, s.timeout(ms), 0, "", nil
		}
		return s.decodeAlign(body)
	}
	// The read stopped early (over the cap, or the client went away). The
	// decoder sees the bytes that did arrive and then the same error, so it
	// answers as if it had read the body itself.
	return s.decodeAlign(io.MultiReader(body, errReader{readErr}))
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// scanAlign decodes the one body shape it owns in a single pass:
//
//	{"pairs":[{"x":"…","y":"…"},…],"timeout_ms":N}
//
// with JSON whitespace between tokens, these keys spelled exactly so and in
// this order, timeout_ms optional and a JSON integer that fits int64, and
// strings of ACGTacgt only. It makes parsePairs' checks as it goes: at most
// maxPairs pairs, 0 < m ≤ n ≤ maxSeqLen, one shape for every pair. Bases go
// through dna's code table into one arena. ok is false, and the caller
// falls back to decodeAlign, for anything else: an escape, another key or
// spelling, a repeated key, null, an empty batch, bytes after the closing
// brace, or a failed check.
func scanAlign(b []byte, maxPairs, maxSeqLen int) (pairs []dna.Pair, timeoutMS int64, ok bool) {
	sc := scanner{b: b}
	if !sc.lit(`{`) || !sc.lit(`"pairs"`) || !sc.lit(`:`) || !sc.lit(`[`) {
		return nil, 0, false
	}
	x, y, ok := sc.pair()
	m, n := len(x), len(y)
	if !ok || m == 0 || n < m || n > maxSeqLen {
		return nil, 0, false
	}
	// Every further pair takes m+n bases and at least 16 bytes of syntax,
	// which bounds the batch by the bytes left.
	batch := min(1+(len(b)-sc.i)/(m+n+16), maxPairs)
	pairs = make([]dna.Pair, 0, batch)
	arena := make(dna.Seq, batch*(m+n))
	for {
		p := dna.Pair{X: arena[:m:m], Y: arena[m : m+n : m+n]}
		arena = arena[m+n:]
		if dna.ParseInto(p.X, x) != nil || dna.ParseInto(p.Y, y) != nil {
			return nil, 0, false
		}
		pairs = append(pairs, p)
		if !sc.lit(`,`) {
			break
		}
		if len(pairs) == cap(pairs) { // a pair past maxPairs
			return nil, 0, false
		}
		if x, y, ok = sc.pair(); !ok || len(x) != m || len(y) != n {
			return nil, 0, false
		}
	}
	if !sc.lit(`]`) {
		return nil, 0, false
	}
	if sc.lit(`,`) {
		if !sc.lit(`"timeout_ms"`) || !sc.lit(`:`) {
			return nil, 0, false
		}
		if timeoutMS, ok = sc.int(); !ok {
			return nil, 0, false
		}
	}
	if !sc.lit(`}`) {
		return nil, 0, false
	}
	sc.space()
	if sc.i != len(b) {
		return nil, 0, false
	}
	return pairs, timeoutMS, true
}

// scanner walks a body for scanAlign.
type scanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (sc *scanner) space() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// lit skips whitespace and then tok, if tok comes next.
func (sc *scanner) lit(tok string) bool {
	sc.space()
	if len(sc.b)-sc.i < len(tok) || string(sc.b[sc.i:sc.i+len(tok)]) != tok {
		return false
	}
	sc.i += len(tok)
	return true
}

// pair reads {"x":"…","y":"…"} and returns the two strings' raw bytes,
// unchecked: ParseInto rejects any byte that is not a base, the backslash
// of an escape included.
func (sc *scanner) pair() (x, y []byte, ok bool) {
	if !sc.lit(`{`) || !sc.lit(`"x"`) || !sc.lit(`:`) {
		return nil, nil, false
	}
	if x, ok = sc.str(); !ok || !sc.lit(`,`) || !sc.lit(`"y"`) || !sc.lit(`:`) {
		return nil, nil, false
	}
	if y, ok = sc.str(); !ok || !sc.lit(`}`) {
		return nil, nil, false
	}
	return x, y, true
}

// str reads a string and returns the bytes between its quotes.
func (sc *scanner) str() ([]byte, bool) {
	if !sc.lit(`"`) {
		return nil, false
	}
	end := bytes.IndexByte(sc.b[sc.i:], '"')
	if end < 0 {
		return nil, false
	}
	s := sc.b[sc.i : sc.i+end]
	sc.i += end + 1
	return s, true
}

// int reads a JSON integer, -?(0|[1-9][0-9]*), that fits int64. A fraction
// or exponent fails, as encoding/json fails to put one in an int64.
func (sc *scanner) int() (int64, bool) {
	sc.space()
	neg := sc.i < len(sc.b) && sc.b[sc.i] == '-'
	if neg {
		sc.i++
	}
	start := sc.i
	var u uint64
	for ; sc.i < len(sc.b) && '0' <= sc.b[sc.i] && sc.b[sc.i] <= '9'; sc.i++ {
		if u > math.MaxInt64/10 { // one more digit overflows either sign
			return 0, false
		}
		u = u*10 + uint64(sc.b[sc.i]-'0')
	}
	switch {
	case sc.i == start, sc.b[start] == '0' && sc.i > start+1:
		return 0, false // no digits, or a leading zero
	case sc.i < len(sc.b) && (sc.b[sc.i] == '.' || sc.b[sc.i]|0x20 == 'e'):
		return 0, false
	case neg && u <= math.MaxInt64+1:
		return -int64(u), true
	case !neg && u <= math.MaxInt64:
		return int64(u), true
	}
	return 0, false
}
