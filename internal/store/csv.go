package store

// The CSV scanner behind ParseIndependentCSV, ParseXRelationCSV and
// Store.ImportCSV. It accepts exactly the encoding/csv dialect the store
// has always read (FuzzCSVParse holds it to the encoding/csv reader byte
// for byte, error texts included) but reads unquoted lines itself: one
// ReadSlice per line, fields split on ',', numbers through an exact
// decimal fast path, values appended to fixed-size column blocks. Quoting
// is encoding/csv's business: the first line that contains a '"' hands
// the rest of the stream, from the start of that line, to a csv.Reader.

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
)

const (
	// scanBufSize is the scanner's read buffer; longer lines are
	// reassembled, so it bounds nothing.
	scanBufSize = 64 << 10
	// blockShift sizes the column blocks: 1<<12 values, 32 KiB each.
	blockShift = 12
	blockLen   = 1 << blockShift
)

// floatBlocks is a column of float64s stored in fixed-size blocks, so
// appending never copies the values already stored.
type floatBlocks struct {
	blocks [][]float64
	n      int
}

func (b *floatBlocks) add(v float64) {
	if b.n&(blockLen-1) == 0 {
		b.blocks = append(b.blocks, make([]float64, blockLen))
	}
	b.blocks[b.n>>blockShift][b.n&(blockLen-1)] = v
	b.n++
}

// at returns value i.
func (b *floatBlocks) at(i int) float64 { return b.blocks[i>>blockShift][i&(blockLen-1)] }

// flat returns the column as one slice.
func (b *floatBlocks) flat() []float64 {
	out := make([]float64, 0, b.n)
	for _, blk := range b.blocks {
		out = append(out, blk[:min(blockLen, b.n-len(out))]...)
	}
	return out
}

// columns is one scanned score,probability[,group] CSV, rows in input
// order.
type columns struct {
	scores, probs floatBlocks
	labels        []string // group labels, kept only when keepLabels is set
	keepLabels    bool
	grouped       bool // some row carried a non-empty group
	records       int  // records read, the header row included
}

// scanCSV parses score,probability[,group] rows (an optional non-numeric
// header row is skipped) and records whether any row carried a group. The
// group labels are collected only when labels is set; the independent
// path needs just the flag.
func scanCSV(r io.Reader, labels bool) (*columns, error) {
	c := &columns{keepLabels: labels}
	br := bufio.NewReaderSize(r, scanBufSize)
	var long []byte // a line longer than the read buffer, reassembled
	lines := 0      // physical lines read, blank ones included
	for {
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
		_, ok0 := parseNum(score)
		_, ok1 := parseNum(prob)
		if !ok0 && !ok1 {
			return nil
		}
	}
	s, ok := parseNum(score)
	if !ok {
		return fmt.Errorf("store: line %d: bad score %q", c.records, score)
	}
	p, ok := parseNum(prob)
	if !ok {
		return fmt.Errorf("store: line %d: bad probability %q", c.records, prob)
	}
	c.scores.add(s)
	c.probs.add(p)
	if len(group) > 0 {
		c.grouped = true
	}
	if c.keepLabels {
		c.labels = append(c.labels, string(group))
	}
	return nil
}

// pow10 holds the powers of ten that are exact float64s.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseNum parses a field exactly as strconv.ParseFloat(field, 64) does,
// reporting only whether it succeeded. A plain decimal — optional sign,
// digits, at most one point — with at most 15 significant digits and at
// most 22 fraction digits takes the exact fast path: its digits m < 10¹⁵
// < 2⁵³ and 10^k for k ≤ 22 are both exact float64s, so the correctly
// rounded quotient m/10^k is the correctly rounded decimal, which is
// ParseFloat's result. Anything else (exponents, inf, nan, hex, longer
// mantissas) goes to ParseFloat.
func parseNum[T string | []byte](field T) (float64, bool) {
	i, neg := 0, false
	if len(field) > 0 && (field[0] == '+' || field[0] == '-') {
		neg = field[0] == '-'
		i++
	}
	var m uint64
	digits, sig, frac, dot := 0, 0, 0, false
	for ; i < len(field); i++ {
		switch c := field[i]; {
		case c >= '0' && c <= '9':
			digits++
			if dot {
				frac++
			}
			if m == 0 && c == '0' {
				continue // a leading zero is not significant
			}
			sig++
			m = m*10 + uint64(c-'0') // wraps only past 19 digits, which go slow
		case c == '.' && !dot:
			dot = true
		default:
			return parseFloat(field)
		}
	}
	if digits == 0 || sig > 15 || frac >= len(pow10) {
		return parseFloat(field)
	}
	f := float64(m) / pow10[frac]
	if neg {
		f = -f
	}
	return f, true
}

func parseFloat[T string | []byte](field T) (float64, bool) {
	f, err := strconv.ParseFloat(string(field), 64)
	return f, err == nil
}
