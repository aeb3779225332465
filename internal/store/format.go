package store

// The on-disk segment format. One dataset is one immutable `<name>.seg`
// file:
//
//	offset  size  field
//	0       8     magic "PRFSEG\r\n" (catches text-mode and charset mangling)
//	8       4     format version (little-endian uint32, currently 1)
//	12      4     kind code (1 ind, 2 xrel, 3 tree, 4 chain)
//	16      8     n — tuples (leaves for trees, variables for chains)
//	24      8     generation — monotone per name, bumped by every Import
//	32      4     section count
//	36      4     CRC-32 (IEEE) of bytes [0, 36)
//	40      24·k  section table: {id u32, crc u32, offset u64, length u64}
//	…       4     CRC-32 of the section table bytes
//	…       …     section payloads, contiguous, in table order
//
// The layout is canonical: sections appear in the fixed per-kind order,
// payloads start right after the table and abut each other, and the file
// ends exactly where the last section does. Canonical means decodable ⇒
// bit-for-bit re-encodable, which is what FuzzSegmentDecode pins: any byte
// string either fails to decode with a typed error or round-trips
// identically through Decode → Encode.
//
// Tuple payloads are stored in the engine's canonical prepared order —
// score descending, ties by ascending tuple ID — so opening a segment is a
// sequential scan straight into core.FromSorted with no parse and no sort,
// and a top-k query can materialize just a score prefix (lazy.go).
//
// Version-bump procedure: any change to this layout must (1) increment
// Version, (2) keep decoding old versions or reject them with ErrVersion,
// (3) regenerate the golden segments under testdata/ via
// `go test ./internal/store -run TestGoldenSegments -update-segments`, and (4) note
// the bump in DESIGN.md §5e. The golden drift test exists so an accidental
// layout change fails CI instead of corrupting stores.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/pdb"
)

// Version is the current segment format version.
const Version = 1

// Typed decode errors. Every failure mode wraps one of these, so callers
// (and the fuzz target) can classify corruption without string matching.
var (
	// ErrBadMagic reports a file that is not a PRF segment at all.
	ErrBadMagic = errors.New("store: bad segment magic")
	// ErrVersion reports a segment written by an unknown format version.
	ErrVersion = errors.New("store: unsupported segment version")
	// ErrTruncated reports a segment shorter than its header declares.
	ErrTruncated = errors.New("store: truncated segment")
	// ErrChecksum reports a header, table or section CRC mismatch.
	ErrChecksum = errors.New("store: segment checksum mismatch")
	// ErrCorrupt reports a structurally invalid segment: wrong section
	// layout, non-canonical tuple order, out-of-range values.
	ErrCorrupt = errors.New("store: corrupt segment")
)

const (
	magicStr    = "PRFSEG\r\n"
	fixedHdrLen = 40
	secDescLen  = 24
	maxSections = 8
	// maxTuples bounds header n before any size arithmetic, keeping the
	// expected-length computations below free of uint64 overflow.
	maxTuples = 1 << 32
	// maxTreeDepth bounds tree-spec nesting in both directions so a hostile
	// segment cannot overflow the decoder's stack.
	maxTreeDepth = 4096
)

// Section IDs.
const (
	secIDs    uint32 = 1 // uint32 per tuple: original tuple ID, prepared order
	secScores uint32 = 2 // float64 bits per tuple
	secProbs  uint32 = 3 // float64 bits per tuple
	secGroups uint32 = 4 // uint32 per leaf: x-tuple index, non-decreasing dense
	secTree   uint32 = 5 // preorder binary and/xor tree spec
	secPairs  uint32 = 6 // 4 float64 per adjacent chain pair: p00,p01,p10,p11
)

// Kind codes (header field); the string kinds are the public surface.
var kindCodes = map[string]uint32{
	KindIndependent: 1,
	KindXRelation:   2,
	KindTree:        3,
	KindChain:       4,
}

var kindNames = map[uint32]string{
	1: KindIndependent,
	2: KindXRelation,
	3: KindTree,
	4: KindChain,
}

// kindSections is the fixed, canonical section order per kind.
var kindSections = map[string][]uint32{
	KindIndependent: {secIDs, secScores, secProbs},
	KindXRelation:   {secScores, secProbs, secGroups},
	KindTree:        {secTree},
	KindChain:       {secScores, secPairs},
}

// section is one parsed section-table entry.
type section struct {
	id  uint32
	crc uint32
	off uint64
	len uint64
}

// header is the parsed fixed header plus section table.
type header struct {
	kind     string
	n        int
	gen      uint64
	sections []section
	size     int64 // total canonical file length
}

func (h *header) section(id uint32) (section, bool) {
	for _, s := range h.sections {
		if s.id == id {
			return s, true
		}
	}
	return section{}, false
}

// expectedLen returns the canonical payload length of a fixed-width
// section, or ok=false for variable-length ones (the tree spec).
func expectedLen(id uint32, n uint64) (uint64, bool) {
	switch id {
	case secIDs, secGroups:
		return 4 * n, true
	case secScores, secProbs:
		return 8 * n, true
	case secPairs:
		return 32 * (n - 1), true
	default:
		return 0, false
	}
}

// readHeader parses and validates the fixed header and section table from
// an open segment. It checks both CRCs and the full canonical layout
// (section order, lengths, contiguity, exact file size) but reads no
// section payloads.
func readHeader(r io.ReaderAt, size int64) (*header, error) {
	if size < fixedHdrLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrTruncated, size, fixedHdrLen)
	}
	fixed := make([]byte, fixedHdrLen)
	if _, err := r.ReadAt(fixed, 0); err != nil {
		return nil, fmt.Errorf("store: reading header: %w", err)
	}
	if string(fixed[:8]) != magicStr {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, fixed[:8])
	}
	if got := binary.LittleEndian.Uint32(fixed[36:40]); got != crc32.ChecksumIEEE(fixed[:36]) {
		return nil, fmt.Errorf("%w: header", ErrChecksum)
	}
	if v := binary.LittleEndian.Uint32(fixed[8:12]); v != Version {
		return nil, fmt.Errorf("%w: %d (this build reads version %d)", ErrVersion, v, Version)
	}
	kind, ok := kindNames[binary.LittleEndian.Uint32(fixed[12:16])]
	if !ok {
		return nil, fmt.Errorf("%w: unknown kind code %d", ErrCorrupt, binary.LittleEndian.Uint32(fixed[12:16]))
	}
	n := binary.LittleEndian.Uint64(fixed[16:24])
	if n == 0 || n > maxTuples {
		return nil, fmt.Errorf("%w: tuple count %d", ErrCorrupt, n)
	}
	want := kindSections[kind]
	secCount := binary.LittleEndian.Uint32(fixed[32:36])
	if secCount > maxSections || int(secCount) != len(want) {
		return nil, fmt.Errorf("%w: kind %s wants %d sections, header says %d", ErrCorrupt, kind, len(want), secCount)
	}
	tableLen := int64(secCount)*secDescLen + 4
	dataOff := fixedHdrLen + tableLen
	if size < dataOff {
		return nil, fmt.Errorf("%w: no room for the %d-entry section table", ErrTruncated, secCount)
	}
	table := make([]byte, tableLen)
	if _, err := r.ReadAt(table, fixedHdrLen); err != nil {
		return nil, fmt.Errorf("store: reading section table: %w", err)
	}
	raw, sum := table[:tableLen-4], binary.LittleEndian.Uint32(table[tableLen-4:])
	if sum != crc32.ChecksumIEEE(raw) {
		return nil, fmt.Errorf("%w: section table", ErrChecksum)
	}
	h := &header{kind: kind, n: int(n), gen: binary.LittleEndian.Uint64(fixed[24:32])}
	next := uint64(dataOff)
	for i := range want {
		d := raw[i*secDescLen:]
		s := section{
			id:  binary.LittleEndian.Uint32(d[0:4]),
			crc: binary.LittleEndian.Uint32(d[4:8]),
			off: binary.LittleEndian.Uint64(d[8:16]),
			len: binary.LittleEndian.Uint64(d[16:24]),
		}
		if s.id != want[i] {
			return nil, fmt.Errorf("%w: section %d is id %d, canonical order wants %d", ErrCorrupt, i, s.id, want[i])
		}
		if s.off != next {
			return nil, fmt.Errorf("%w: section %d at offset %d, canonical layout wants %d", ErrCorrupt, s.id, s.off, next)
		}
		if wantLen, fixedWidth := expectedLen(s.id, n); fixedWidth && s.len != wantLen {
			return nil, fmt.Errorf("%w: section %d is %d bytes, n=%d wants %d", ErrCorrupt, s.id, s.len, n, wantLen)
		}
		if s.len > uint64(size)-next { // next ≤ size is maintained inductively
			return nil, fmt.Errorf("%w: section %d runs past the file end", ErrTruncated, s.id)
		}
		next += s.len
		h.sections = append(h.sections, s)
	}
	if int64(next) != size {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last section", ErrCorrupt, size-int64(next))
	}
	h.size = size
	return h, nil
}

// readSection reads one full section payload, verifying its CRC.
func readSection(r io.ReaderAt, s section) ([]byte, error) {
	buf := make([]byte, s.len)
	if _, err := r.ReadAt(buf, int64(s.off)); err != nil {
		return nil, fmt.Errorf("store: reading section %d: %w", s.id, err)
	}
	if crc32.ChecksumIEEE(buf) != s.crc {
		return nil, fmt.Errorf("%w: section %d", ErrChecksum, s.id)
	}
	return buf, nil
}

// writeBufSize is the segment writer's buffer.
const writeBufSize = 64 << 10

// segmentFile is where a segment is written: the payloads stream through
// Write, then the header and section table, which carry the payload CRCs,
// are written over the space reserved for them with WriteAt.
type segmentFile interface {
	io.Writer
	io.WriterAt
}

// memFile is a segmentFile in memory: Write appends, WriteAt overwrites
// bytes already written.
type memFile struct{ b []byte }

func (m *memFile) Write(p []byte) (int, error) {
	m.b = append(m.b, p...)
	return len(p), nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	return copy(m.b[off:], p), nil
}

// crcWriter forwards writes to w, folding every byte into a running
// CRC-32 (IEEE) and a byte count.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   uint64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	c.n += uint64(len(p))
	return c.w.Write(p)
}

// sectionWriter streams section payloads, one after another, through one
// buffered writer. Each section is flushed when it ends, which closes its
// CRC and length into the table. The first error sticks: every later write
// is skipped and writeSegment returns it.
type sectionWriter struct {
	bw    *bufio.Writer
	sum   *crcWriter // under bw: sees each section's bytes exactly once
	off   uint64     // file offset of the section being written
	table []section
	err   error
}

// fixed streams one section of n elements of width bytes each, encoding
// them straight into the buffer's free space: put fills b with the
// elements from lo on.
func (w *sectionWriter) fixed(id uint32, width, n int, put func(b []byte, lo int)) {
	for lo := 0; lo < n && w.err == nil; {
		b := w.bw.AvailableBuffer()
		k := min(n-lo, cap(b)/width)
		if k == 0 {
			w.err = w.bw.Flush()
			continue
		}
		b = b[:k*width]
		put(b, lo)
		_, w.err = w.bw.Write(b)
		lo += k
	}
	w.end(id)
}

// u32s streams a section of n little-endian uint32s, element i being at(i).
func (w *sectionWriter) u32s(id uint32, n int, at func(int) uint32) {
	w.fixed(id, 4, n, func(b []byte, lo int) {
		for j := 0; j < len(b)/4; j++ {
			binary.LittleEndian.PutUint32(b[4*j:], at(lo+j))
		}
	})
}

// f64s streams a section of n float64 bit patterns, element i being at(i).
func (w *sectionWriter) f64s(id uint32, n int, at func(int) float64) {
	w.fixed(id, 8, n, func(b []byte, lo int) {
		for j := 0; j < len(b)/8; j++ {
			binary.LittleEndian.PutUint64(b[8*j:], math.Float64bits(at(lo+j)))
		}
	})
}

// raw writes a section whose payload is already encoded.
func (w *sectionWriter) raw(id uint32, p []byte) {
	if w.err == nil {
		_, w.err = w.bw.Write(p)
	}
	w.end(id)
}

func (w *sectionWriter) end(id uint32) {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	w.table = append(w.table, section{id: id, crc: w.sum.crc, off: w.off, len: w.sum.n})
	w.off += w.sum.n
	w.sum.crc, w.sum.n = 0, 0
}

// writeSegment writes one segment of the given kind, n tuples and
// generation to f and returns its length. emit writes the kind's sections
// in canonical order; they stream through a writeBufSize buffer from the
// end of the header's space, and the header and section table are written
// last. This is the one segment encoder: Encode runs it into memory, the
// store's imports into the segment file.
func writeSegment(f segmentFile, kind string, n int, generation uint64, emit func(*sectionWriter)) (int64, error) {
	order := kindSections[kind]
	hdr := make([]byte, fixedHdrLen+len(order)*secDescLen+4)
	if _, err := f.Write(hdr); err != nil {
		return 0, err
	}
	sum := &crcWriter{w: f}
	w := &sectionWriter{bw: bufio.NewWriterSize(sum, writeBufSize), sum: sum, off: uint64(len(hdr))}
	emit(w)
	if w.err != nil {
		return 0, w.err
	}
	if len(w.table) != len(order) {
		return 0, fmt.Errorf("%w: %s segment written with %d sections, want %d", ErrCorrupt, kind, len(w.table), len(order))
	}
	copy(hdr, magicStr)
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	binary.LittleEndian.PutUint32(hdr[12:], kindCodes[kind])
	binary.LittleEndian.PutUint64(hdr[16:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:], generation)
	binary.LittleEndian.PutUint32(hdr[32:], uint32(len(order)))
	binary.LittleEndian.PutUint32(hdr[36:], crc32.ChecksumIEEE(hdr[:36]))
	for i, s := range w.table {
		if want, fixedWidth := expectedLen(s.id, uint64(n)); s.id != order[i] || fixedWidth && s.len != want {
			return 0, fmt.Errorf("%w: %s segment section %d written as id %d, %d bytes", ErrCorrupt, kind, i, s.id, s.len)
		}
		d := hdr[fixedHdrLen+i*secDescLen:]
		binary.LittleEndian.PutUint32(d[0:], s.id)
		binary.LittleEndian.PutUint32(d[4:], s.crc)
		binary.LittleEndian.PutUint64(d[8:], s.off)
		binary.LittleEndian.PutUint64(d[16:], s.len)
	}
	tbl := hdr[fixedHdrLen : len(hdr)-4]
	binary.LittleEndian.PutUint32(hdr[len(hdr)-4:], crc32.ChecksumIEEE(tbl))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return 0, err
	}
	return int64(w.off), nil
}

// writeSections emits the dataset's sections in canonical order.
func (ds *Dataset) writeSections(w *sectionWriter) {
	for _, id := range kindSections[ds.Kind] {
		switch id {
		case secIDs:
			w.u32s(id, len(ds.IDs), func(i int) uint32 { return uint32(ds.IDs[i]) })
		case secScores:
			w.f64s(id, len(ds.Scores), func(i int) float64 { return ds.Scores[i] })
		case secProbs:
			w.f64s(id, len(ds.Probs), func(i int) float64 { return ds.Probs[i] })
		case secGroups:
			w.u32s(id, len(ds.Groups), func(i int) uint32 { return ds.Groups[i] })
		case secTree:
			w.raw(id, encodeTree(ds.Tree))
		case secPairs:
			// p00, p01, p10, p11 per adjacent pair
			w.f64s(id, 4*len(ds.Pairs), func(i int) float64 { return ds.Pairs[i/4][i/2%2][i%2] })
		}
	}
}

// Encode serializes a canonical Dataset into segment bytes at the current
// format version. The dataset must satisfy the canonical invariants
// (Dataset.validate); Import establishes them for parsed input.
func Encode(ds *Dataset, generation uint64) ([]byte, error) {
	if _, err := ds.validate(nil); err != nil {
		return nil, err
	}
	var m memFile
	if _, err := writeSegment(&m, ds.Kind, ds.len(), generation, ds.writeSections); err != nil {
		return nil, err
	}
	return m.b, nil
}

func decodeFloats(b []byte) []float64 {
	fs := make([]float64, len(b)/8)
	for i := range fs {
		fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return fs
}

// Decode parses segment bytes into the Dataset and generation they carry,
// verifying every checksum and every canonical invariant. Decode succeeding
// guarantees Encode(ds, gen) reproduces data bit-for-bit.
func Decode(data []byte) (*Dataset, uint64, error) {
	ds, gen, _, err := decode(data)
	return ds, gen, err
}

// decode is Decode, also returning the model validation built.
func decode(data []byte) (*Dataset, uint64, model, error) {
	h, err := readHeader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, 0, model{}, err
	}
	ds := &Dataset{Kind: h.kind}
	for _, s := range h.sections {
		buf, err := readSection(bytes.NewReader(data), s)
		if err != nil {
			return nil, 0, model{}, err
		}
		switch s.id {
		case secIDs:
			ds.IDs = make([]pdb.TupleID, h.n)
			for i := range ds.IDs {
				ds.IDs[i] = pdb.TupleID(binary.LittleEndian.Uint32(buf[4*i:]))
			}
		case secScores:
			ds.Scores = decodeFloats(buf)
		case secProbs:
			ds.Probs = decodeFloats(buf)
		case secGroups:
			ds.Groups = make([]uint32, h.n)
			for i := range ds.Groups {
				ds.Groups[i] = binary.LittleEndian.Uint32(buf[4*i:])
			}
		case secTree:
			t, err := decodeTree(buf, h.n)
			if err != nil {
				return nil, 0, model{}, err
			}
			ds.Tree = t
		case secPairs:
			ds.Pairs = make([][2][2]float64, h.n-1)
			for i := range ds.Pairs {
				ds.Pairs[i][0][0] = math.Float64frombits(binary.LittleEndian.Uint64(buf[32*i:]))
				ds.Pairs[i][0][1] = math.Float64frombits(binary.LittleEndian.Uint64(buf[32*i+8:]))
				ds.Pairs[i][1][0] = math.Float64frombits(binary.LittleEndian.Uint64(buf[32*i+16:]))
				ds.Pairs[i][1][1] = math.Float64frombits(binary.LittleEndian.Uint64(buf[32*i+24:]))
			}
		}
	}
	m, err := ds.validate(nil)
	if err != nil {
		return nil, 0, model{}, err
	}
	return ds, h.gen, m, nil
}

// Tree-spec binary encoding: a preorder walk with fixed-width fields (no
// varints, so every well-formed structure has exactly one encoding).
//
//	node  := leaf | and | xor
//	leaf  := 0x01 keyLen:u32 key:bytes score:f64bits
//	and   := 0x02 childCount:u32 node*
//	xor   := 0x03 childCount:u32 prob:f64bits* node*
const (
	treeTagLeaf = 0x01
	treeTagAnd  = 0x02
	treeTagXor  = 0x03
	minNodeLen  = 5 // smallest encodable node: a childless and/xor
)

func encodeTree(spec *TreeSpec) []byte {
	var buf bytes.Buffer
	var walk func(s *TreeSpec)
	walk = func(s *TreeSpec) {
		var b [8]byte
		switch {
		case s.Leaf != nil:
			buf.WriteByte(treeTagLeaf)
			binary.LittleEndian.PutUint32(b[:4], uint32(len(s.Leaf.Key)))
			buf.Write(b[:4])
			buf.WriteString(s.Leaf.Key)
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(s.Leaf.Score))
			buf.Write(b[:8])
		case s.Xor != nil:
			buf.WriteByte(treeTagXor)
			binary.LittleEndian.PutUint32(b[:4], uint32(len(s.Xor.Children)))
			buf.Write(b[:4])
			for _, p := range s.Xor.Probs {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
				buf.Write(b[:8])
			}
			for i := range s.Xor.Children {
				walk(&s.Xor.Children[i])
			}
		default:
			buf.WriteByte(treeTagAnd)
			binary.LittleEndian.PutUint32(b[:4], uint32(len(s.And)))
			buf.Write(b[:4])
			for i := range s.And {
				walk(&s.And[i])
			}
		}
	}
	walk(spec)
	return buf.Bytes()
}

// treeCursor decodes the preorder tree payload with hard bounds on depth
// and fan-out so hostile input cannot blow the stack or the heap.
type treeCursor struct {
	b      []byte
	pos    int
	leaves int
}

func (c *treeCursor) remaining() int { return len(c.b) - c.pos }

func (c *treeCursor) u32() (uint32, error) {
	if c.remaining() < 4 {
		return 0, fmt.Errorf("%w: tree spec ends inside a field", ErrTruncated)
	}
	v := binary.LittleEndian.Uint32(c.b[c.pos:])
	c.pos += 4
	return v, nil
}

func (c *treeCursor) f64() (float64, error) {
	if c.remaining() < 8 {
		return 0, fmt.Errorf("%w: tree spec ends inside a field", ErrTruncated)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.pos:]))
	c.pos += 8
	return v, nil
}

func (c *treeCursor) node(depth int) (TreeSpec, error) {
	if depth > maxTreeDepth {
		return TreeSpec{}, fmt.Errorf("%w: tree spec nests deeper than %d", ErrCorrupt, maxTreeDepth)
	}
	if c.remaining() < 1 {
		return TreeSpec{}, fmt.Errorf("%w: tree spec ends at a node boundary", ErrTruncated)
	}
	tag := c.b[c.pos]
	c.pos++
	switch tag {
	case treeTagLeaf:
		keyLen, err := c.u32()
		if err != nil {
			return TreeSpec{}, err
		}
		if int(keyLen) > c.remaining() {
			return TreeSpec{}, fmt.Errorf("%w: leaf key runs past the spec", ErrTruncated)
		}
		key := string(c.b[c.pos : c.pos+int(keyLen)])
		c.pos += int(keyLen)
		score, err := c.f64()
		if err != nil {
			return TreeSpec{}, err
		}
		c.leaves++
		return TreeSpec{Leaf: &LeafSpec{Key: key, Score: score}}, nil
	case treeTagAnd, treeTagXor:
		count, err := c.u32()
		if err != nil {
			return TreeSpec{}, err
		}
		if int64(count)*minNodeLen > int64(c.remaining()) {
			return TreeSpec{}, fmt.Errorf("%w: node claims %d children in %d bytes", ErrCorrupt, count, c.remaining())
		}
		var probs []float64
		if tag == treeTagXor {
			probs = make([]float64, count)
			for i := range probs {
				if probs[i], err = c.f64(); err != nil {
					return TreeSpec{}, err
				}
			}
		}
		children := make([]TreeSpec, count)
		for i := range children {
			if children[i], err = c.node(depth + 1); err != nil {
				return TreeSpec{}, err
			}
		}
		if tag == treeTagXor {
			return TreeSpec{Xor: &XorSpec{Probs: probs, Children: children}}, nil
		}
		return TreeSpec{And: children}, nil
	default:
		return TreeSpec{}, fmt.Errorf("%w: unknown tree node tag %d", ErrCorrupt, tag)
	}
}

func decodeTree(b []byte, n int) (*TreeSpec, error) {
	c := &treeCursor{b: b}
	root, err := c.node(0)
	if err != nil {
		return nil, err
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the tree spec", ErrCorrupt, c.remaining())
	}
	if c.leaves != n {
		return nil, fmt.Errorf("%w: tree spec has %d leaves, header says %d", ErrCorrupt, c.leaves, n)
	}
	return &root, nil
}
