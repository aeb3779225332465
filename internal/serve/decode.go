package serve

// The request decode. A /rank or /rankbatch body is read once, bounded by
// Options.MaxBodyBytes, into a pooled buffer, and a strict scanner takes it
// in one forward pass if it can take all of it: one RankRequest object whose
// keys are exactly the json tags (each at most once), strings of printable
// ASCII with no escapes, numbers in the JSON grammar converted by strconv
// exactly as encoding/json converts them, number arrays and booleans, and
// JSON whitespace only. That is the shape every client built on
// json.Marshal sends. Any other body — terms, null, a differently cased or
// unknown key, an escape, an integer field written as a float, an overflow,
// trailing data, a body over the limit — goes whole to encoding/json with
// DisallowUnknownFields, fed the bytes already read and then the rest of the
// body, so it sees the same byte stream as if it had read the body itself.
// The fallback is the only writer of a decode error: statuses and error
// texts are encoding/json's, whichever body arrives. FuzzRankRequestDecode
// holds the scanner to that rule.

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// bodyPool recycles request-body buffers. A buffer that grew past
// maxPooledBody (a large weights vector, say) is dropped instead of pinned.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const maxPooledBody = 64 << 10

// readBody appends all of r to buf. It returns the first error other than
// io.EOF; the bytes read before it are in the returned slice.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeBody reads body whole into a pooled buffer and decodes it into
// req: by the scanner when the read reached EOF and the scanner takes all
// of it, otherwise by encoding/json fed the bytes read and then the rest of
// body. body is the bounded request body, whose read errors (too large,
// cut short) stay in place for encoding/json to meet where it would have.
func decodeBody(body io.Reader, req *RankRequest) error {
	bp := bodyPool.Get().(*[]byte)
	read, err := readBody(body, (*bp)[:0])
	if err != nil || !scanRequest(read, req) {
		var src io.Reader = bytes.NewReader(read)
		if err != nil {
			src = io.MultiReader(src, body)
		}
		var fb RankRequest
		dec := json.NewDecoder(src)
		dec.DisallowUnknownFields()
		err = dec.Decode(&fb)
		*req = fb
	}
	if cap(read) <= maxPooledBody {
		*bp = read[:0]
		bodyPool.Put(bp)
	}
	return err
}

// scanRequest is the fast decode: it fills req and reports true only if b
// is one RankRequest in the accepted shape; on false req holds junk and the
// caller decodes b again with encoding/json.
func scanRequest(b []byte, req *RankRequest) bool {
	p := wireScanner{b: b}
	p.ws()
	if !p.request(req) {
		return false
	}
	p.ws()
	return p.i == len(b)
}

// wireScanner is a cursor over one body. Every method either consumes one
// complete JSON production and reports true, or reports false, after which
// the cursor is meaningless.
type wireScanner struct {
	b []byte
	i int
}

func (p *wireScanner) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (p *wireScanner) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// member moves to the next key of an object whose '{' is consumed, past
// its ':'. first marks the first call for that object; done reports the
// closing '}'.
func (p *wireScanner) member(first bool) (key []byte, done, ok bool) {
	p.ws()
	if p.eat('}') {
		return nil, true, true
	}
	if !first {
		if !p.eat(',') {
			return nil, false, false
		}
		p.ws()
	}
	key, ok = p.str()
	if !ok {
		return nil, false, false
	}
	p.ws()
	if !p.eat(':') {
		return nil, false, false
	}
	p.ws()
	return key, false, true
}

// request scans the RankRequest object.
func (p *wireScanner) request(req *RankRequest) bool {
	if !p.eat('{') {
		return false
	}
	var seen uint8
	for first := true; ; first = false {
		key, done, ok := p.member(first)
		if !ok {
			return false
		}
		if done {
			return true
		}
		var bit uint8
		switch string(key) {
		case "dataset":
			bit = 1 << 0
			req.Dataset, ok = p.text()
		case "query":
			bit = 1 << 1
			ok = p.query(&req.Query)
		case "timeout_ms":
			bit = 1 << 2
			req.TimeoutMS, ok = p.integer(64)
		case "stream":
			bit = 1 << 3
			req.Stream, ok = p.boolean()
		case "format":
			bit = 1 << 4
			req.Format, ok = p.text()
		}
		if bit == 0 || seen&bit != 0 || !ok {
			return false
		}
		seen |= bit
	}
}

// query scans the WireQuery object. terms is left to encoding/json.
func (p *wireScanner) query(q *WireQuery) bool {
	if !p.eat('{') {
		return false
	}
	var seen uint8
	for first := true; ; first = false {
		key, done, ok := p.member(first)
		if !ok {
			return false
		}
		if done {
			return true
		}
		var bit uint8
		var n int64
		switch string(key) {
		case "metric":
			bit = 1 << 0
			q.Metric, ok = p.text()
		case "output":
			bit = 1 << 1
			q.Output, ok = p.text()
		case "alpha":
			bit = 1 << 2
			q.Alpha, ok = p.float()
		case "alphas":
			bit = 1 << 3
			q.Alphas, ok = p.floats()
		case "weights":
			bit = 1 << 4
			q.Weights, ok = p.floats()
		case "h":
			bit = 1 << 5
			n, ok = p.integer(strconv.IntSize)
			q.H = int(n)
		case "k":
			bit = 1 << 6
			n, ok = p.integer(strconv.IntSize)
			q.K = int(n)
		}
		if bit == 0 || seen&bit != 0 || !ok {
			return false
		}
		seen |= bit
	}
}

// str scans a string of printable ASCII with no escapes and returns its
// contents, which alias the body.
func (p *wireScanner) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			p.i++
			return p.b[start : p.i-1], true
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			return nil, false
		}
		p.i++
	}
	return nil, false
}

// text is str copied out of the pooled body.
func (p *wireScanner) text() (string, bool) {
	s, ok := p.str()
	return string(s), ok
}

// number scans one JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?.
// integer reports that it has neither fraction nor exponent.
func (p *wireScanner) number() (num []byte, integer, ok bool) {
	start := p.i
	p.eat('-')
	if !p.eat('0') && !p.digits() {
		return nil, false, false
	}
	integer = true
	if p.eat('.') {
		integer = false
		if !p.digits() {
			return nil, false, false
		}
	}
	if p.eat('e') || p.eat('E') {
		integer = false
		if !p.eat('+') {
			p.eat('-')
		}
		if !p.digits() {
			return nil, false, false
		}
	}
	return p.b[start:p.i], integer, true
}

// digits consumes one or more decimal digits.
func (p *wireScanner) digits() bool {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// float scans a number into a float64 field, as encoding/json does; an
// out-of-range value is left to encoding/json's error.
func (p *wireScanner) float() (float64, bool) {
	num, _, ok := p.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, err == nil
}

// integer scans a number into an integer field of the given width. Like
// encoding/json it takes only integer literals (1.0 and 1e2 are errors
// there), so anything else, or an overflow, is left to encoding/json.
func (p *wireScanner) integer(bits int) (int64, bool) {
	num, integer, ok := p.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(num), 10, bits)
	return n, err == nil
}

// floats scans an array of numbers. [] is a non-nil empty slice, as
// encoding/json makes it.
func (p *wireScanner) floats() ([]float64, bool) {
	if !p.eat('[') {
		return nil, false
	}
	var stack [32]float64
	vals := stack[:0]
	p.ws()
	if !p.eat(']') {
		for {
			f, ok := p.float()
			if !ok {
				return nil, false
			}
			vals = append(vals, f)
			p.ws()
			if p.eat(']') {
				break
			}
			if !p.eat(',') {
				return nil, false
			}
			p.ws()
		}
	}
	out := make([]float64, len(vals))
	copy(out, vals)
	return out, true
}

// boolean scans true or false.
func (p *wireScanner) boolean() (bool, bool) {
	rest := p.b[p.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		p.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		p.i += 5
		return false, true
	}
	return false, false
}
