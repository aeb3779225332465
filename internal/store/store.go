// Package store is a disk-backed dataset store for the ranking engine.
//
// Datasets are persisted as immutable binary segments (format.go) whose
// tuple payloads are already in the engine's canonical prepared order, so
// opening one is a sequential scan straight into a prepared view — the
// paper's amortize-the-sort insight extended to disk: the sort is paid once
// at import, not per process start. Independent-tuple segments additionally
// open lazily (lazy.go): a top-k query against a cold dataset materializes
// only the score prefix it needs.
//
// A store is a flat directory of `<name>.seg` files. Imports are atomic
// (write-temp-then-rename) and bump a per-name generation carried in the
// segment header; readers hold their own open file handle, so replacing or
// deleting a segment never disturbs a dataset that is already open — the
// snapshot semantics the serving layer's hot-swap endpoints rely on.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/andxor"
	"repro/internal/engine"
	"repro/internal/pdb"
)

// Store-level errors.
var (
	// ErrNotFound reports a dataset name with no segment in the store.
	ErrNotFound = errors.New("store: dataset not found")
	// ErrBadName reports a dataset name outside [A-Za-z0-9._-]
	// (or leading-dot, empty, or longer than 128 bytes).
	ErrBadName = errors.New("store: invalid dataset name")
)

const segExt = ".seg"

// Store is a dataset store rooted at one directory.
type Store struct {
	dir string
}

// Open opens (creating if needed) the store directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// CheckName validates a dataset name: 1–128 bytes of [A-Za-z0-9._-], not
// starting with a dot. Names are file stems, so the alphabet is exactly the
// portable-filename set — nothing a path or an URL needs escaping for.
func CheckName(name string) error {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("%w: %q", ErrBadName, name)
		}
	}
	return nil
}

func (s *Store) path(name string) string {
	return filepath.Join(s.dir, name+segExt)
}

// Info describes one stored dataset, from its segment header alone.
type Info struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	Tuples     int    `json:"tuples"`
	Generation uint64 `json:"generation"`
	SizeBytes  int64  `json:"size_bytes"`
}

// Names lists the dataset names present in the store, sorted.
func (s *Store) Names() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", s.dir, err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), segExt) {
			continue
		}
		name := strings.TrimSuffix(e.Name(), segExt)
		if CheckName(name) == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Info reads one dataset's segment header.
func (s *Store) Info(name string) (Info, error) {
	h, err := s.OpenHandle(name)
	if err != nil {
		return Info{}, err
	}
	defer h.Close()
	return h.Info(), nil
}

// Import parses nothing and trusts nothing: it validates the dataset's
// canonical invariants, serializes it at the current format version with
// the next generation for this name (1 if new), and atomically replaces any
// existing segment via rename. Open handles on the old segment keep reading
// the old snapshot.
func (s *Store) Import(name string, ds *Dataset) (Info, error) {
	return s.importDataset(name, ds, nil)
}

// importDataset is Import, handing validate the x-relation tree the parser
// built, if any (see Dataset.validate).
func (s *Store) importDataset(name string, ds *Dataset, tree *andxor.Tree) (Info, error) {
	if err := CheckName(name); err != nil {
		return Info{}, err
	}
	if _, err := ds.validate(tree); err != nil {
		return Info{}, err
	}
	return s.put(name, ds.Kind, ds.len(), s.nextGeneration(name), ds.writeSections)
}

// InputError is an ImportCSV failure caused by the dataset body itself —
// a read, parse or validation error — rather than by the store. It reads
// exactly as the error it wraps.
type InputError struct{ Err error }

func (e *InputError) Error() string { return e.Err.Error() }

func (e *InputError) Unwrap() error { return e.Err }

// ImportCSV parses a dataset body of the given kind (CSV for ind and
// xrel, JSON for tree and chain) and imports it under name, exactly as
// Parse followed by Import would: the same segment bytes, the same error
// texts. An independent-tuple CSV goes straight from text to segment: the
// scanner parses and checks nearly every row in one forward pass over its
// read buffer into pooled fixed-size column blocks, a radix sort on keys
// the scanner chose (exact scaled decimals where the text allows) orders
// them by permutation in pooled scratch, and the sections are encoded in
// that order, so no sorted copy of the dataset is ever built and blocks
// and scratch go back to their pools for the next import. The other kinds
// parse into a Dataset and Import it; an x-relation's import reuses the
// and/xor tree its parse built to check the rows. Failures of the body come back as
// *InputError; the rest are the store's.
func (s *Store) ImportCSV(name, kind string, r io.Reader) (Info, error) {
	if err := CheckName(name); err != nil {
		return Info{}, err
	}
	switch kind {
	case KindIndependent:
	case KindXRelation:
		ds, tree, err := parseXRelationCSV(r)
		if err != nil {
			return Info{}, &InputError{Err: err}
		}
		return s.importDataset(name, ds, tree)
	default:
		ds, err := Parse(kind, r)
		if err != nil {
			return Info{}, &InputError{Err: err}
		}
		return s.Import(name, ds)
	}
	c, order, scores, err := scanIndependent(r)
	if err != nil {
		return Info{}, &InputError{Err: err}
	}
	defer c.release()
	return s.put(name, KindIndependent, len(order), s.nextGeneration(name), c.independentSections(order, scores))
}

// nextGeneration is the generation the next import of name gets: one past
// the stored segment's, 1 if there is none.
func (s *Store) nextGeneration(name string) uint64 {
	if old, err := s.Info(name); err == nil {
		return old.Generation + 1
	}
	return 1
}

// put writes one segment for name — emit streams its sections — to a temp
// file in the store directory, syncs it, renames it over the target and
// syncs the directory, so a returned nil means the new segment survives a
// crash.
func (s *Store) put(name, kind string, n int, gen uint64, emit func(*sectionWriter)) (Info, error) {
	tmp, err := os.CreateTemp(s.dir, "."+name+".tmp*")
	if err != nil {
		return Info{}, fmt.Errorf("store: importing %s: %w", name, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	size, err := writeSegment(tmp, kind, n, gen, emit)
	if err != nil {
		tmp.Close()
		return Info{}, fmt.Errorf("store: importing %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return Info{}, fmt.Errorf("store: importing %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return Info{}, fmt.Errorf("store: importing %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), s.path(name)); err != nil {
		return Info{}, fmt.Errorf("store: importing %s: %w", name, err)
	}
	// The rename is durable only once the directory entry is synced.
	d, err := os.Open(s.dir)
	if err != nil {
		return Info{}, fmt.Errorf("store: importing %s: %w", name, err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return Info{}, fmt.Errorf("store: importing %s: %w", name, err)
	}
	if err := d.Close(); err != nil {
		return Info{}, fmt.Errorf("store: importing %s: %w", name, err)
	}
	return Info{Name: name, Kind: kind, Tuples: n, Generation: gen, SizeBytes: size}, nil
}

// Delete removes a dataset's segment. Open handles keep their snapshot.
func (s *Store) Delete(name string) error {
	if err := CheckName(name); err != nil {
		return err
	}
	if err := os.Remove(s.path(name)); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return fmt.Errorf("store: deleting %s: %w", name, err)
	}
	return nil
}

// Dataset reads and fully decodes one stored dataset, verifying every
// checksum and canonical invariant.
func (s *Store) Dataset(name string) (*Dataset, uint64, error) {
	h, err := s.OpenHandle(name)
	if err != nil {
		return nil, 0, err
	}
	defer h.Close()
	return h.Dataset()
}

// Verify checks one segment end to end: header and section checksums, the
// canonical invariants, and that re-encoding the decoded dataset reproduces
// the file bit-for-bit.
func (s *Store) Verify(name string) error {
	h, err := s.OpenHandle(name)
	if err != nil {
		return err
	}
	defer h.Close()
	ds, gen, err := h.Dataset()
	if err != nil {
		return err
	}
	again, err := Encode(ds, gen)
	if err != nil {
		return err
	}
	raw := make([]byte, h.hdr.size)
	if _, err := h.f.ReadAt(raw, 0); err != nil {
		return fmt.Errorf("store: rereading %s: %w", name, err)
	}
	if string(again) != string(raw) {
		return fmt.Errorf("%w: %s does not re-encode canonically", ErrCorrupt, name)
	}
	return nil
}

// Compact rewrites one segment canonically at the current format version,
// preserving its generation. On an intact store this is a no-op rewrite;
// its value is recovering trailing garbage and upgrading old versions.
func (s *Store) Compact(name string) (Info, error) {
	ds, gen, err := s.Dataset(name)
	if err != nil {
		return Info{}, err
	}
	return s.put(name, ds.Kind, ds.len(), gen, ds.writeSections)
}

// OpenEngine opens one stored dataset as a prepared ranking engine.
// Independent-tuple datasets open lazily — the returned engine holds a
// LazyPrepared that materializes from disk on demand; the structured kinds
// decode fully here. Either way the engine is an immutable snapshot of the
// segment at open time.
func (s *Store) OpenEngine(name string) (*engine.Engine, Info, error) {
	h, err := s.OpenHandle(name)
	if err != nil {
		return nil, Info{}, err
	}
	info := h.Info()
	if h.Kind() == KindIndependent {
		return engine.New(NewLazy(h)), info, nil
	}
	defer h.Close()
	_, _, m, err := h.decode()
	if err != nil {
		return nil, Info{}, err
	}
	return m.engine(), info, nil
}

// Handle is an open, header-validated segment. It pins the snapshot (the
// open file survives concurrent Import/Delete of the same name) and counts
// the payload bytes it reads, which is how the lazy path's o(n) claim is
// measured.
type Handle struct {
	name      string
	f         *os.File
	hdr       *header
	bytesRead atomic.Int64
}

// OpenHandle opens a segment and validates its header and section table
// (section payloads are read — and checksummed — on demand).
func (s *Store) OpenHandle(name string) (*Handle, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	f, err := os.Open(s.path(name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return nil, fmt.Errorf("store: opening %s: %w", name, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: opening %s: %w", name, err)
	}
	hdr, err := readHeader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &Handle{name: name, f: f, hdr: hdr}, nil
}

// Name returns the dataset name the handle was opened under.
func (h *Handle) Name() string { return h.name }

// Kind returns the dataset kind.
func (h *Handle) Kind() string { return h.hdr.kind }

// Len returns the tuple count.
func (h *Handle) Len() int { return h.hdr.n }

// Generation returns the segment's import generation.
func (h *Handle) Generation() uint64 { return h.hdr.gen }

// SizeBytes returns the segment file size.
func (h *Handle) SizeBytes() int64 { return h.hdr.size }

// BytesRead returns the total payload and file bytes read through this
// handle so far.
func (h *Handle) BytesRead() int64 { return h.bytesRead.Load() }

// Info summarizes the handle's segment header.
func (h *Handle) Info() Info {
	return Info{Name: h.name, Kind: h.hdr.kind, Tuples: h.hdr.n,
		Generation: h.hdr.gen, SizeBytes: h.hdr.size}
}

// Close releases the underlying file.
func (h *Handle) Close() error { return h.f.Close() }

// Dataset reads the whole segment and fully decodes it.
func (h *Handle) Dataset() (*Dataset, uint64, error) {
	ds, gen, _, err := h.decode()
	return ds, gen, err
}

// decode is Dataset, also returning the model validation built.
func (h *Handle) decode() (*Dataset, uint64, model, error) {
	raw := make([]byte, h.hdr.size)
	if _, err := h.f.ReadAt(raw, 0); err != nil {
		return nil, 0, model{}, fmt.Errorf("store: reading %s: %w", h.name, err)
	}
	h.bytesRead.Add(h.hdr.size)
	ds, gen, m, err := decode(raw)
	if err != nil {
		return nil, 0, model{}, fmt.Errorf("%s: %w", h.name, err)
	}
	return ds, gen, m, nil
}

// readSectionFull reads one whole section payload, verifying its checksum.
func (h *Handle) readSectionFull(id uint32) ([]byte, error) {
	sec, ok := h.hdr.section(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s has no section %d", ErrCorrupt, h.name, id)
	}
	buf, err := readSection(h.f, sec)
	if err != nil {
		return nil, err
	}
	h.bytesRead.Add(int64(len(buf)))
	return buf, nil
}

// readRange reads element range [lo, hi) of a fixed-width section. Partial
// reads cannot verify the section checksum — the lazy path trusts
// import-time validation and relies on full loads (and Verify) to detect
// bit rot.
func (h *Handle) readRange(id uint32, elemSize, lo, hi int) ([]byte, error) {
	sec, ok := h.hdr.section(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s has no section %d", ErrCorrupt, h.name, id)
	}
	buf := make([]byte, (hi-lo)*elemSize)
	if _, err := h.f.ReadAt(buf, int64(sec.off)+int64(lo*elemSize)); err != nil {
		return nil, fmt.Errorf("store: reading %s section %d: %w", h.name, id, err)
	}
	h.bytesRead.Add(int64(len(buf)))
	return buf, nil
}

// ReadIDs reads tuple IDs for prepared positions [lo, hi) of an
// independent-tuple segment.
func (h *Handle) ReadIDs(lo, hi int) ([]pdb.TupleID, error) {
	buf, err := h.readRange(secIDs, 4, lo, hi)
	if err != nil {
		return nil, err
	}
	ids := make([]pdb.TupleID, hi-lo)
	for i := range ids {
		id := pdb.TupleID(binary.LittleEndian.Uint32(buf[4*i:]))
		if int(id) >= h.hdr.n {
			return nil, fmt.Errorf("%w: %s has tuple ID %d out of range", ErrCorrupt, h.name, id)
		}
		ids[i] = id
	}
	return ids, nil
}

// ReadProbs reads probabilities for prepared positions [lo, hi) of an
// independent-tuple segment.
func (h *Handle) ReadProbs(lo, hi int) ([]float64, error) {
	buf, err := h.readRange(secProbs, 8, lo, hi)
	if err != nil {
		return nil, err
	}
	return decodeFloats(buf), nil
}
