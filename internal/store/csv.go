package store

// The CSV scanner behind ParseIndependentCSV, ParseXRelationCSV and
// Store.ImportCSV. It accepts exactly the encoding/csv dialect the store
// has always read (FuzzCSVParse holds it to the encoding/csv reader byte
// for byte, error texts included) but reads unquoted lines itself. Its
// main loop walks the read buffer's bytes once: each line of plain
// decimals (score,prob[,label] and a newline) is parsed, checked and
// appended to fixed-size column blocks in one forward pass, and the
// buffer is then consumed past every line the loop took. The first line
// it does not take outright — the header row, a quote, an exponent, an
// empty field, a line cut by the buffer's end — goes through the
// per-line path: one ReadSlice, fields split on ',', numbers through
// parseNum. Quoting is encoding/csv's business: the first line that
// contains a '"' hands the rest of the stream, from the start of that
// line, to a csv.Reader.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/pdb"
)

const (
	// scanBufSize is the scanner's read buffer; longer lines are
	// reassembled, so it bounds nothing.
	scanBufSize = 64 << 10
	// blockShift sizes the column blocks: 1<<12 rows, 64 KiB each.
	blockShift = 12
	blockLen   = 1 << blockShift
)

// The two columns of a block.
const (
	colScore = iota
	colProb
)

// block holds blockLen rows: the scores, then the probabilities.
type block [2][blockLen]float64

// blockPool recycles column blocks from one scan to the next, so a
// steady stream of imports reuses the same few megabytes instead of
// leaving them behind as garbage. A pool, not a free list: the
// collector may empty it, so idle blocks never pin the live heap.
var blockPool = sync.Pool{New: func() any { return new(block) }}

// newBlock checks a block out of blockPool; release puts it back.
func newBlock() *block { return blockPool.Get().(*block) }

// orderPool recycles the canonical sort's scratch the same way, for the
// same reason.
var orderPool = sync.Pool{New: func() any { return new(core.OrderScratch) }}

// newOrderScratch checks sort scratch out of orderPool; release puts it
// back.
func newOrderScratch() *core.OrderScratch { return orderPool.Get().(*core.OrderScratch) }

// columns is one scanned score,probability[,group] CSV, rows in input
// order, stored in fixed-size blocks so appending never copies the rows
// already stored.
type columns struct {
	blocks     []*block
	n          int      // rows stored
	labels     []string // group labels, kept only when keepLabels is set
	keepLabels bool
	grouped    bool  // some row carried a non-empty group
	records    int   // records read, the header row included
	invalid    error // the first row pdb.CheckTuple rejects, tuple i being ID i
	// What the scores were written as: the most fraction digits of any,
	// whether some score was not a plain decimal of at most 15 digits,
	// and the least and greatest. They choose the sort keys (sortOrder).
	frac    int
	inexact bool
	lo, hi  float64
	// order is the sort scratch checked out of orderPool, if any.
	order *core.OrderScratch
}

// add appends one row, checking it against pdb's tuple rules. frac is
// the score's fraction digit count as decimal read it, −1 if the score
// was not such a decimal.
func (c *columns) add(score, prob float64, frac int, group []byte) {
	if c.invalid == nil {
		c.invalid = pdb.CheckTuple(pdb.TupleID(c.n), score, prob)
	}
	if frac < 0 {
		c.inexact = true
	} else if frac > c.frac {
		c.frac = frac
	}
	if score < c.lo {
		c.lo = score
	}
	if score > c.hi {
		c.hi = score
	}
	if c.n&(blockLen-1) == 0 {
		c.blocks = append(c.blocks, newBlock())
	}
	b := c.blocks[c.n>>blockShift]
	b[colScore][c.n&(blockLen-1)], b[colProb][c.n&(blockLen-1)] = score, prob
	c.n++
	if len(group) > 0 {
		c.grouped = true
	}
	if c.keepLabels {
		c.labels = append(c.labels, string(group))
	}
}

// at returns column col of row i.
func (c *columns) at(col, i int) float64 { return c.blocks[i>>blockShift][col][i&(blockLen-1)] }

// putOrdered encodes column col of rows order[:len(b)/8] into b as
// little-endian float64 bit patterns, the segment's encoding.
func (c *columns) putOrdered(b []byte, col int, order []uint32) {
	for j, i := range order[:len(b)/8] {
		binary.LittleEndian.PutUint64(b[8*j:], math.Float64bits(c.at(col, int(i))))
	}
}

// gatherScores sets dst[j] to the score of row ids[j].
func (c *columns) gatherScores(dst []float64, ids []uint32) {
	for j, i := range ids {
		dst[j] = c.at(colScore, int(i))
	}
}

// flat returns column col as one slice.
func (c *columns) flat(col int) []float64 {
	out := make([]float64, 0, c.n)
	for _, b := range c.blocks {
		out = append(out, b[col][:min(blockLen, c.n-len(out))]...)
	}
	return out
}

// release returns the blocks and the sort scratch to their pools once
// the rows have been copied or written out; the columns are empty after.
func (c *columns) release() {
	for _, b := range c.blocks {
		blockPool.Put(b)
	}
	if c.order != nil {
		orderPool.Put(c.order)
	}
	c.blocks, c.n, c.order = nil, 0, nil
}

// decimalScale reports whether the scores have exact decimal sort keys,
// and their scale. When every score was a plain decimal of at most 15
// digits, F fraction digits at most, each is the double nearest m/10^f
// for its digits m and fraction digits f ≤ F, so k = m·10^(F−f) is an
// exact integer, and distinct such decimals are distinct doubles. Where
// the product s·10^F stays below 2^51 in magnitude it is within 3/8 of k
// — the parse's rounding of s moves it at most 2^−53·2^51 = 1/4, the
// product's own rounding at most half its spacing of 1/4 — so rounding
// it to the nearest integer gives k exactly: the keys order and tie
// exactly as the scores do, −0 and 0 both at k = 0.
func (c *columns) decimalScale() (float64, bool) {
	scale := pow10[c.frac]
	return scale, !c.inexact && max(math.Abs(c.lo), math.Abs(c.hi))*scale < 1<<51
}

// decimalKey rounds s·scale, of magnitude below 2^51, to its integer k:
// adding 1.5·2^52 lands the sum where doubles are exactly the integers,
// and its bits are then a constant plus k, ascending with k.
func decimalKey(s, scale float64) uint64 { return math.Float64bits(s*scale + 0x1.8p52) }

// sortOrder sorts the rows into their canonical order, returning it with
// the scores gathered into it, in scratch from orderPool that release
// returns. The keys are the scaled decimals when decimalScale allows,
// counted down from the greatest score's so they span only the bits the
// scores need — at most 23 for three-decimal scores below 8,000, so at
// most three radix passes where core.ScoreKey's float keys take six —
// and ScoreKey's otherwise.
func (c *columns) sortOrder() (order []uint32, scores []float64, err error) {
	c.order = newOrderScratch()
	keys := c.order.Keys(c.n)
	scale, exact := c.decimalScale()
	top := decimalKey(c.hi, scale)
	for i, b := range c.blocks {
		out := keys[i<<blockShift:]
		for j, s := range b[colScore][:min(blockLen, c.n-i<<blockShift)] {
			if exact {
				out[j] = top - decimalKey(s, scale)
			} else {
				out[j] = core.ScoreKey(s)
			}
		}
	}
	return c.order.CanonicalOrder(c.gatherScores)
}

// scanCSV parses score,probability[,group] rows (an optional non-numeric
// header row is skipped) and records whether any row carried a group. The
// group labels are collected only when labels is set; the independent
// path needs just the flag. Every row is checked with pdb.CheckTuple as it
// lands; the first failure is kept in invalid for the independent path to
// report once the whole input has scanned.
func scanCSV(r io.Reader, labels bool) (*columns, error) {
	c := &columns{keepLabels: labels, lo: math.Inf(1), hi: math.Inf(-1)}
	br := bufio.NewReaderSize(r, scanBufSize)
	var long []byte // a line longer than the read buffer, reassembled
	lines := 0      // physical lines read, blank ones included
	for {
		if c.records > 0 { // past the header decision
			buf, _ := br.Peek(br.Buffered())
			used, n := c.addLines(buf)
			br.Discard(used)
			lines += n
		}
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		if len(line) == 0 {
			return c, nil // io.EOF
		}
		lines++
		if bytes.IndexByte(line, '"') >= 0 {
			rest := io.MultiReader(bytes.NewReader(bytes.Clone(line)), br)
			if err := c.readQuoted(rest, lines-1); err != nil {
				return nil, err
			}
			return c, nil
		}
		// encoding/csv's line rules: "\r\n" ends a line like "\n" does, a
		// final line may lack its newline (and then drops one trailing
		// '\r'), and a line left empty is skipped.
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) > 0 {
			if err := c.addLine(line); err != nil {
				return nil, err
			}
		}
		if err == io.EOF {
			return c, nil
		}
	}
}

// addLines is the scanner's main loop. It adds the complete lines at the
// head of buf that it accepts outright — plain decimals that parseNum's
// exact path takes whole, an optional non-empty label, "\n" or "\r\n",
// or a blank "\n" — and returns the bytes and the lines they took. It
// stops at the first line it does not accept, which is left for the
// per-line path: such a line may be quoted, malformed or cut by the
// buffer's end, and only the per-line path decides (and words the
// error). So a line either goes here whole or there whole.
func (c *columns) addLines(buf []byte) (used, lines int) {
	for used < len(buf) {
		i := used
		if buf[i] == '\n' {
			used, lines = i+1, lines+1
			continue
		}
		s, k, frac, ok := decimal(buf[i:])
		if i += k; !ok || i >= len(buf) || buf[i] != ',' {
			return
		}
		i++
		p, k, _, ok := decimal(buf[i:])
		if i += k; !ok || i >= len(buf) {
			return
		}
		var label []byte
		if buf[i] == ',' {
			j := i + 1
			for j < len(buf) && buf[j] != ',' && buf[j] != '\n' && buf[j] != '\r' && buf[j] != '"' {
				j++
			}
			if j == i+1 || j >= len(buf) {
				return
			}
			label, i = buf[i+1:j], j
		}
		switch {
		case buf[i] == '\n':
			i++
		case buf[i] == '\r' && i+1 < len(buf) && buf[i+1] == '\n':
			i += 2
		default:
			return
		}
		c.records++
		c.add(s, p, frac, label)
		used, lines = i, lines+1
	}
	return
}

// addLine adds one unquoted, non-empty line.
func (c *columns) addLine(line []byte) error {
	c.records++
	i := bytes.IndexByte(line, ',')
	if i < 0 {
		return fmt.Errorf("store: line %d: need score,probability", c.records)
	}
	score, prob, group := line[:i], line[i+1:], []byte(nil)
	if j := bytes.IndexByte(prob, ','); j >= 0 {
		prob, group = prob[:j], prob[j+1:]
		if k := bytes.IndexByte(group, ','); k >= 0 {
			group = group[:k]
		}
	}
	return addRow(c, score, prob, group)
}

// readQuoted reads the rest of the CSV with encoding/csv. r starts at a
// line boundary, skipped lines before it; the line numbers in its
// *csv.ParseError texts are shifted by skipped so they count from the
// start of the whole input.
func (c *columns) readQuoted(r io.Reader, skipped int) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true // the field strings stay valid; only the slice is reused
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				pe.StartLine += skipped
				pe.Line += skipped
			}
			return err
		}
		c.records++
		if len(rec) < 2 {
			return fmt.Errorf("store: line %d: need score,probability", c.records)
		}
		group := ""
		if len(rec) >= 3 {
			group = rec[2]
		}
		if err := addRow(c, rec[0], rec[1], group); err != nil {
			return err
		}
	}
}

// addRow adds one record's fields. Only a first record that is
// non-numeric in BOTH value columns reads as a header; a data row with one
// typo'd field must error, not silently vanish (it would shift every
// tuple ID).
func addRow[T string | []byte](c *columns, score, prob, group T) error {
	if c.records == 1 {
		_, _, ok0 := parseNum(score)
		_, _, ok1 := parseNum(prob)
		if !ok0 && !ok1 {
			return nil
		}
	}
	s, frac, ok := parseNum(score)
	if !ok {
		return fmt.Errorf("store: line %d: bad score %q", c.records, score)
	}
	p, _, ok := parseNum(prob)
	if !ok {
		return fmt.Errorf("store: line %d: bad probability %q", c.records, prob)
	}
	c.add(s, p, frac, []byte(group))
	return nil
}

// pow10 holds the powers of ten up to 10¹⁵, all exact float64s.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15}

// parseNum parses a field exactly as strconv.ParseFloat(field, 64) does,
// reporting only whether it succeeded: a field that decimal reads whole
// is its value, with its fraction digit count; anything else goes to
// ParseFloat, and frac is then −1.
func parseNum[T string | []byte](field T) (f float64, frac int, ok bool) {
	if f, n, frac, ok := decimal(field); ok && n == len(field) {
		return f, frac, true
	}
	f, ok = parseFloat(field)
	return f, -1, ok
}

// decimal parses the plain decimal at the head of b — optional sign,
// digits, at most one point — and returns its value, its length and its
// count of digits after the point. It stops
// at the first byte that cannot continue the decimal; ok is false unless
// it read between 1 and 15 digits. Those are exact: the digits m < 10¹⁵ <
// 2⁵³ and 10^k for k ≤ 15 are both exact float64s, so the correctly
// rounded quotient m/10^k is the correctly rounded decimal, which is
// strconv.ParseFloat's result. Longer decimals, and exponents, inf, nan
// and hex, are ParseFloat's.
func decimal[T string | []byte](b T) (f float64, n, frac int, ok bool) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i++
	}
	start := i
	var m uint64 // the digits, the point dropped
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	digits := i - start
	if i < len(b) && b[i] == '.' {
		i++
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		frac = i - start - digits - 1
		digits += frac
	}
	if digits == 0 || digits > 15 {
		return 0, i, 0, false
	}
	f = float64(m) / pow10[frac]
	if neg {
		f = -f
	}
	return f, i, frac, true
}

func parseFloat[T string | []byte](field T) (float64, bool) {
	f, err := strconv.ParseFloat(string(field), 64)
	return f, err == nil
}
