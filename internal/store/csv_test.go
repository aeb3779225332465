package store

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/andxor"
	"repro/internal/core"
	"repro/internal/pdb"
)

// referenceReadCSV is the encoding/csv reader the scanner replaced, kept
// verbatim as FuzzCSVParse's reference: score,probability[,group] rows,
// an optional non-numeric header row skipped.
func referenceReadCSV(r io.Reader, labels bool) (scores, probs []float64, groups []string, grouped bool, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, nil, false, err
		}
		line++
		if len(rec) < 2 {
			return nil, nil, nil, false, fmt.Errorf("store: line %d: need score,probability", line)
		}
		if line == 1 {
			_, err0 := strconv.ParseFloat(rec[0], 64)
			_, err1 := strconv.ParseFloat(rec[1], 64)
			if err0 != nil && err1 != nil {
				continue
			}
		}
		s, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, nil, nil, false, fmt.Errorf("store: line %d: bad score %q", line, rec[0])
		}
		p, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, nil, nil, false, fmt.Errorf("store: line %d: bad probability %q", line, rec[1])
		}
		scores = append(scores, s)
		probs = append(probs, p)
		g := ""
		if len(rec) >= 3 {
			g = rec[2]
		}
		if g != "" {
			grouped = true
		}
		if labels {
			groups = append(groups, g)
		}
	}
	return scores, probs, groups, grouped, nil
}

// referenceParse is Parse for the CSV kinds on the reference reader, the
// independent order taken from the comparator sort of core.Prepare.
func referenceParse(kind string, data []byte) (*Dataset, error) {
	scores, probs, labels, grouped, err := referenceReadCSV(bytes.NewReader(data), kind == KindXRelation)
	if err != nil {
		return nil, err
	}
	if kind == KindIndependent && grouped {
		return nil, errors.New("store: independent CSV has a group column; load it as an x-relation (kind xrel)")
	}
	if len(scores) == 0 {
		return nil, errors.New("store: empty dataset")
	}
	if kind == KindIndependent {
		d, err := pdb.NewDataset(scores, probs)
		if err != nil {
			return nil, err
		}
		v := core.Prepare(d)
		return &Dataset{Kind: kind, IDs: v.IDs(), Scores: v.Scores(), Probs: v.Probs()}, nil
	}
	gs, _ := andxor.GroupRows(scores, probs, labels)
	if _, err := andxor.XTuples(gs); err != nil {
		return nil, err
	}
	ds := &Dataset{Kind: kind}
	for g, alts := range gs {
		for _, a := range alts {
			ds.Scores = append(ds.Scores, a.Score)
			ds.Probs = append(ds.Probs, a.Prob)
			ds.Groups = append(ds.Groups, uint32(g))
		}
	}
	return ds, nil
}

// checkAgainstReference parses data both ways and fails unless both give
// the same error text or datasets that encode to the same segment bytes.
// For independent data the streamed sections ImportCSV writes must be
// those bytes too.
func checkAgainstReference(t *testing.T, kind string, data []byte) {
	t.Helper()
	want, wantErr := referenceParse(kind, data)
	got, gotErr := Parse(kind, bytes.NewReader(data))
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s %q: error %v, reference %v", kind, data, gotErr, wantErr)
		}
		return
	}
	wantSeg, err := Encode(want, 1)
	if err != nil {
		t.Fatalf("%s %q: reference dataset does not encode: %v", kind, data, err)
	}
	gotSeg, err := Encode(got, 1)
	if err != nil || !bytes.Equal(gotSeg, wantSeg) {
		t.Fatalf("%s %q: parsed dataset %+v (%v), reference %+v", kind, data, got, err, want)
	}
	if kind != KindIndependent {
		return
	}
	c, order, scores, err := scanIndependent(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s %q: scan: %v", kind, data, err)
	}
	defer c.release()
	var m memFile
	if _, err := writeSegment(&m, kind, len(order), 1, c.independentSections(order, scores)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.b, wantSeg) {
		t.Fatalf("%s %q: streamed segment differs from Encode's", kind, data)
	}
}

// FuzzCSVParse holds the scanner to the encoding/csv reader it replaced:
// for arbitrary bytes and both CSV kinds, the same dataset (to the segment
// byte) or the same error text.
func FuzzCSVParse(f *testing.F) {
	for _, seed := range []string{
		indCSV, xrelCSV,
		"score,probability\r\n120,0.4\r\n130,0.7\r\n80,0.3\r\n",
		"\"score\",\"probability\"\n\"120\",\"0.4\"\n130,\"0.7\"\n\"80\",0.3\n",
		"\n120,0.4\n\n\n130,0.7\r\n\r\n80,0.3\n\n",
		"120,0.4\n130,0.7\n80,0.3",
		"5,0.5\n7,0.1\n5,0.25\n-0,1\n0,0\n",
		"score,0.5\n1,0.5\n",
		"1,0.5\n\n\n2x,0.5\n",
		"1,0.5\n2,\"0.5\n",
		"1,0.5\n2\n\"3\",0.5\n",
		"1,0.5\n2,\"0\n.5\"\n3,0.5\"x\n",
		"1,0.5\r\r\n2,0.5\r",
		"1e2,5e-1\n+.5,.25\n-1.,1.\ninf,0.5\n0x1p-2,0.5\n1_0,0.5\n",
		"0.123456789012345678,0.999999999999999999\n1234567890123456,0.0000000000000000000001\n",
		"1,0.75,a\n2,0.5,a\n",
		"1,0.25,\"a,b\"\n2,0.5,a\n3,0.25,\"a,b\"\n",
		"1,0.5,,x\n2,0.5,\n",
		// the main loop's exits, each behind a run of lines it takes
		"1,0.5\n2,0.25\n3,0.125\n\"4\",0.5\n5,0.5\n",
		"1,0.5\n2,0.25\n1234567890123456,0.5\n3,0.5\n",
		"1,0.5\n2,0.25\n3,0.5x\n4,0.5\n",
		"1,0.5\n2,0.25\n3,1.5\n4,x\n",
		"1,0.5\n2,0.25\r\n\r\n3,0.5\r\n4,0.5",
		"1,0.5\n2,0.25\n3,0.5\r4,0.5\n5,0.5\r",
		"1,0.5\n2,0.25\n3,\n4,0.5\n",
		"1,0.5,a\n2,0.25,b\n3,0.5,\n4,0.5,c,d\n5,0.5,\"e\"\n",
		"1,0.5\n2,0.25\n3e0,.5\n-4.,+0.5\n",
		// the sort keys: exact decimal keys, and each way out of them
		"1.5,0.5\n1.50,0.25\n2,0.5\n1.5000,0.75\n",
		"-0.000,0.5\n0,0.5\n-0,0.25\n0.001,0.5\n-0.001,0.5\n",
		"-12.345,0.5\n3.5,0.5\n-12.345,0.25\n-12.3449,0.5\n",
		"123456789012.345,0.5\n-123456789012.345,0.5\n0.123456789012345,0.5\n",
		"1.5,0.5\n2.25,0.5\n1e0,0.5\n0.75,0.5\n",
		"123456789012345,0.5\n0.01,0.5\n-5,0.5\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, KindIndependent, data)
		checkAgainstReference(t, KindXRelation, data)
	})
}

// chunkReader hands data out at most size bytes per Read, so a
// bufio.Reader in front of it holds a partial line after almost every
// fill.
type chunkReader struct {
	data []byte
	size int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.size)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// fillerCSV returns a header and then lines the scanner's main loop takes
// whole — "i,0.5\n", or "i,0.5,gi\n" with labels — exactly size bytes in
// all.
func fillerCSV(size int, labels bool) []byte {
	b := []byte("score,prob\n")
	line := func(i int, pad int) []byte {
		l := append(bytes.Repeat([]byte("0"), pad), strconv.Itoa(i)+",0.5"...)
		if labels {
			l = append(l, ",g"+strconv.Itoa(i)...)
		}
		return append(l, '\n')
	}
	for i := 1; ; i++ {
		l := line(i, 0)
		if rest := size - len(b); rest < 2*len(l) {
			return append(b, line(i, rest-len(l))...) // pads with leading zeros
		}
		b = append(b, l...)
	}
}

// sameScan reports whether two scans read the same rows, bit for bit,
// and the same labels, flags and counts.
func sameScan(a, b *columns) bool {
	if a.n != b.n || a.grouped != b.grouped || a.records != b.records ||
		fmt.Sprint(a.invalid) != fmt.Sprint(b.invalid) || !slices.Equal(a.labels, b.labels) {
		return false
	}
	for col := range 2 {
		bv := b.flat(col)
		for i, v := range a.flat(col) {
			if math.Float64bits(v) != math.Float64bits(bv[i]) {
				return false
			}
		}
	}
	return true
}

// TestScanBufferBoundaries puts every way out of the scanner's main loop
// at, just before and just after the end of the first read buffer, behind
// a run of lines the loop takes, and holds each input to the reference
// reader: independent lines as kind ind, labelled ones as kind xrel. The
// same input arriving 97 bytes per read, which leaves a cut line at the
// end of nearly every buffer, must scan the same.
func TestScanBufferBoundaries(t *testing.T) {
	long := strings.Repeat("0", scanBufSize+10) + "7,0.5\n"
	exits := []struct{ name, line string }{
		{"quoted score", "\"7\",0.5\n"},
		{"quoted prob", "7,\"0.5\"\n"},
		{"16-digit mantissa", "1234567890123456,0.5\n"},
		{"bad field", "7,0.5x\n"},
		{"invalid prob", "7,1.5\n"},
		{"crlf", "7,0.5\r\n"},
		{"bare cr", "7,0.5\r8,0.5\n"},
		{"empty field", "7,\n"},
		{"extra column", "7,0.5,a,b\n"},
		{"exponent", "7e0,0.5\n"},
		{"blank line", "\n\n"},
		{"final line without newline", "7,0.5"},
		{"line longer than the buffer", long},
	}
	tail := "9,0.25\n10,0.125\n"
	for _, labels := range []bool{false, true} {
		kind := KindIndependent
		if labels {
			kind = KindXRelation
		}
		for _, ex := range exits {
			for d := -len(ex.line) - 1; d <= 2; d++ {
				if ex.line == long && d < -3 {
					continue // the line holds the boundary throughout
				}
				data := append(fillerCSV(scanBufSize+d, labels), ex.line...)
				if strings.HasSuffix(ex.line, "\n") {
					data = append(data, tail...)
				}
				t.Run(fmt.Sprintf("%s/%s/at%+d", kind, ex.name, d), func(t *testing.T) {
					checkAgainstReference(t, kind, data)
					want, wantErr := scanCSV(bytes.NewReader(data), labels)
					got, gotErr := scanCSV(&chunkReader{data, 97}, labels)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotErr == nil && !sameScan(got, want) {
						t.Fatalf("in 97-byte reads: %v, whole: %v", gotErr, wantErr)
					}
				})
			}
		}
	}
}

// plainDecimal matches what decimal reads: a sign, digits, a point and
// the fraction digits.
var plainDecimal = regexp.MustCompile(`^[+-]?([0-9]*)(?:\.([0-9]*))?$`)

// The fast decimal path must give ParseFloat's bits for every plain
// decimal it accepts, with its fraction digit count, and leave everything
// else to ParseFloat.
func TestParseNumMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	digits := func(k int) string {
		b := make([]byte, k)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	cases := []string{"", "+", "-", ".", "-.", "0", "-0", "+0", "-0.000", "00012.5000", ".5", "5.",
		"1.2.3", "1e5", "1E-5", "inf", "-Inf", "NaN", "0x1p-2", "1_0", " 1", "1 ", "--1",
		"999999999999999", "9999999999999999", "0.0000000000000000000001", "0.00000000000000000000001",
		"123456789012345.6", "1.23456789012345", "179769313486231570814527423731704356798070567525844996598917476803157260780028538760589558632766878171540458953514382464234321326889464182768467546703537516986049910576551282076245490090389328944075868508455133942304583236903222948165808559332123348274797826204144723168738177180919299881250404026184124858368"}
	for i := 0; i < 20000; i++ {
		s := digits(rng.Intn(18))
		if rng.Intn(2) == 0 {
			s += "." + digits(rng.Intn(25))
		}
		switch rng.Intn(4) {
		case 0:
			s = "-" + s
		case 1:
			s = "+" + s
		}
		cases = append(cases, s)
	}
	for _, s := range cases {
		want, err := strconv.ParseFloat(s, 64)
		// A plain decimal of 1 to 15 digits reports its fraction digits;
		// anything else, −1.
		wantFrac := -1
		if m := plainDecimal.FindStringSubmatch(s); m != nil {
			if d := len(m[1]) + len(m[2]); d >= 1 && d <= 15 {
				wantFrac = len(m[2])
			}
		}
		f1, frac1, ok1 := parseNum(s)
		f2, frac2, ok2 := parseNum([]byte(s))
		for _, got := range [...]struct {
			f    float64
			frac int
			ok   bool
		}{{f1, frac1, ok1}, {f2, frac2, ok2}} {
			if got.ok != (err == nil) || got.ok && math.Float64bits(got.f) != math.Float64bits(want) {
				t.Fatalf("parseNum(%q) = %v, %v; ParseFloat %v, %v", s, got.f, got.ok, want, err)
			}
			if got.ok && got.frac != wantFrac {
				t.Fatalf("parseNum(%q): %d fraction digits, want %d", s, got.frac, wantFrac)
			}
		}
	}
}

// genCSV writes an n-row independent CSV that exercises every scanner
// path: an optional header, mixed LF and CRLF line ends, blank lines, tied
// scores, both zeros, probabilities 0 and 1, fast- and slow-path numbers,
// a line longer than the read buffer and, optionally, a quoted line part
// way through that hands the rest to encoding/csv.
func genCSV(rng *rand.Rand, n int, header, quoted bool) string {
	var b strings.Builder
	if header {
		b.WriteString("score,probability\r\n")
	}
	for i := 0; i < n; i++ {
		var score, prob string
		switch rng.Intn(6) {
		case 0:
			score = strconv.Itoa(rng.Intn(5))
		case 1:
			score = [...]string{"-0", "0", "0.000", "-0.0", "+0"}[rng.Intn(5)]
		case 2:
			score = fmt.Sprint(rng.NormFloat64() * 1e3) // 17 digits: ParseFloat
		case 3:
			score = strconv.FormatFloat(rng.ExpFloat64()*30, 'e', 4, 64)
		default:
			score = strconv.FormatFloat(rng.ExpFloat64()*30, 'f', 3, 64)
		}
		switch rng.Intn(5) {
		case 0:
			prob = [...]string{"0", "1", "0.5", "1.0000", "0.0"}[rng.Intn(5)]
		case 1:
			prob = fmt.Sprint(rng.Float64())
		default:
			prob = strconv.FormatFloat(rng.Float64(), 'f', 4, 64)
		}
		switch {
		case i == n/3:
			score = strings.Repeat("0", scanBufSize+100) + "12.5"
		case quoted && i == n/2:
			score, prob = `"`+score+`"`, `"`+prob+`"`
		}
		b.WriteString(score + "," + prob)
		if rng.Intn(2) == 0 {
			b.WriteString("\r")
		}
		b.WriteString("\n")
		if rng.Intn(50) == 0 {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// readSegment returns one stored segment's bytes.
func readSegment(t *testing.T, s *Store, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(s.path(name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ImportCSV must write exactly the segment Parse followed by Import
// writes, for every kind, on inputs spanning several column blocks.
func TestImportCSVMatchesParseImport(t *testing.T) {
	streamed, parsed := tempStore(t), tempStore(t)
	rng := rand.New(rand.NewSource(20))
	inputs := map[string]string{}
	for kind, src := range kindSources() {
		inputs[kind] = src
	}
	for i, n := range []int{3 * blockLen, blockLen, 1000} {
		inputs[fmt.Sprintf("ind-%d", i)] = genCSV(rng, n, i%2 == 0, i != 1)
	}
	for name, src := range inputs {
		kind, _, _ := strings.Cut(name, "-")
		ds, err := Parse(kind, strings.NewReader(src))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		for gen := uint64(1); gen <= 2; gen++ {
			want, err := parsed.Import(name, ds)
			if err != nil {
				t.Fatalf("%s: import: %v", name, err)
			}
			got, err := streamed.ImportCSV(name, kind, strings.NewReader(src))
			if err != nil {
				t.Fatalf("%s: ImportCSV: %v", name, err)
			}
			if got != want || got.Generation != gen {
				t.Fatalf("%s: ImportCSV info %+v, Import %+v", name, got, want)
			}
			if !bytes.Equal(readSegment(t, streamed, name), readSegment(t, parsed, name)) {
				t.Fatalf("%s: ImportCSV wrote different segment bytes from Parse+Import", name)
			}
		}
		if err := streamed.Verify(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// A body ImportCSV rejects is an *InputError with Parse's exact text, and
// leaves the stored generation alone.
func TestImportCSVInputErrors(t *testing.T) {
	s := tempStore(t)
	if _, err := s.ImportCSV("d", KindIndependent, strings.NewReader(indCSV)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ kind, body string }{
		{KindIndependent, "1,0.5\n2,1.5\n"},
		{KindIndependent, "1,0.5\n2,\"0.5\n"},
		{KindIndependent, "1,0.5,a\n"},
		{KindXRelation, "1,0.75,a\n2,0.5,a\n"},
		{KindChain, "{"},
		{"nope", "1,0.5\n"},
	} {
		_, want := Parse(tc.kind, strings.NewReader(tc.body))
		_, err := s.ImportCSV("d", tc.kind, strings.NewReader(tc.body))
		var bad *InputError
		if !errors.As(err, &bad) || want == nil || err.Error() != want.Error() {
			t.Fatalf("%s %q: ImportCSV error %v, want *InputError %q", tc.kind, tc.body, err, want)
		}
	}
	if info, err := s.Info("d"); err != nil || info.Generation != 1 {
		t.Fatalf("after rejected imports: %+v, %v", info, err)
	}
	if _, err := s.ImportCSV("../d", KindIndependent, strings.NewReader(indCSV)); !errors.Is(err, ErrBadName) {
		t.Fatalf("bad name: %v", err)
	}
}

// Importing an independent CSV allocates per column block and per
// import, never per row: a 10⁵-row import stays within the block count
// plus a constant. Its bytes stay within 512 KiB, which holds only while
// the column blocks and the sort scratch (3.2 MB at this size) come back
// from their pools. That is measured on one P, as AllocsPerRun measures:
// the scratch is a single pooled object, which waits in the private slot
// of the P that put it back, where a Get on another P cannot find it. The
// race detector makes sync.Pool drop a random quarter of what it is
// given, so there only the count is held.
func TestImportCSVAllocs(t *testing.T) {
	const n = 100_000
	body := benchCSV(n)
	s := tempStore(t)
	imp := func() {
		if _, err := s.ImportCSV("d", KindIndependent, bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, imp)
	if limit := float64(n/blockLen + 100); allocs > limit {
		t.Fatalf("ImportCSV of %d rows: %.0f allocations, want at most %.0f", n, allocs, limit)
	}
	if raceEnabled {
		return
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		imp()
	}
	runtime.ReadMemStats(&after)
	if b, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(512<<10); b > limit {
		t.Fatalf("ImportCSV of %d rows: %d bytes allocated, want at most %d", n, b, limit)
	}
}

// The sort keys are the scaled decimals when every score is a plain
// decimal of at most 15 digits and the scaled magnitudes stay below 2^51,
// and core.ScoreKey's float keys otherwise. Each input must take the keys
// named and parse exactly as the reference reader and the comparator sort
// do.
func TestSortKeys(t *testing.T) {
	for _, tc := range []struct {
		name, data string
		decimal    bool
	}{
		{"mixed fraction lengths", "1.5,0.5\n1.50,0.25\n1.25,0.5\n2,0.5\n1.5000,0.75\n", true},
		{"negative zero", "-0.000,0.5\n0,0.5\n-0,0.25\n0.001,0.5\n-0.001,0.5\n", true},
		{"negatives", "-12.345,0.5\n-1,0.5\n3.5,0.5\n-12.345,0.25\n-12.3449,0.5\n", true},
		{"15 digits", "123456789012.345,0.5\n123456789012.344,0.5\n-123456789012.345,0.5\n0.5,0.5\n", true},
		{"15 fraction digits", ".123456789012345,0.5\n.123456789012344,0.5\n0.1,0.5\n-.000000000000001,0.5\n", true},
		{"header and quotes", "score,prob\n1.5,0.5\n\"2.25\",0.5\n-3,\"0.5\"\n", true},
		{"just under 2^51", "225179981368524,0.5\n0.5,0.5\n-225179981368524,0.25\n", true},
		{"just over 2^51", "225179981368525,0.5\n0.5,0.5\n", false},
		{"negative over 2^51", "-225179981368525,0.5\n0.5,0.5\n", false},
		{"beyond 2^51", "123456789012345,0.5\n0.01,0.5\n-5,0.5\n", false},
		{"exponent row", "1.5,0.5\n2.25,0.5\n1e0,0.5\n0.75,0.5\n", false},
		{"16 digits", "1.5,0.5\n0.1234567890123456,0.5\n", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(tc.data)
			checkAgainstReference(t, KindIndependent, data)
			c, err := scanCSV(bytes.NewReader(data), false)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c.decimalScale(); ok != tc.decimal {
				t.Fatalf("decimal keys %v, want %v", ok, tc.decimal)
			}
		})
	}
}

// benchCSV, shaped like a served table, must sort on the decimal keys,
// and they must span at most 22 bits, two radix passes: a silent fall
// back to the six-pass float keys fails here, not only in a benchmark.
func TestBenchCSVSortsOnDecimalKeys(t *testing.T) {
	c, err := scanCSV(bytes.NewReader(benchCSV(100_000)), false)
	if err != nil {
		t.Fatal(err)
	}
	defer c.release()
	scale, ok := c.decimalScale()
	if !ok {
		t.Fatalf("float keys (%d fraction digits, scores in [%v, %v])", c.frac, c.lo, c.hi)
	}
	if w := bits.Len64(decimalKey(c.hi, scale) - decimalKey(c.lo, scale)); w > 22 {
		t.Fatalf("decimal keys span %d bits, want at most 22", w)
	}
}

// benchCSV returns an n-row independent CSV shaped like a served table:
// a header, three-decimal scores, four-decimal probabilities.
func benchCSV(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	buf := []byte("score,prob\n")
	for i := 0; i < n; i++ {
		buf = strconv.AppendFloat(buf, rng.ExpFloat64()*30, 'f', 3, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, 0.01+0.98*rng.Float64(), 'f', 4, 64)
		buf = append(buf, '\n')
	}
	return buf
}

// BenchmarkImportCSV imports a 10⁵-row independent CSV shaped like a
// served table (three-decimal scores, four-decimal probabilities); B/op is
// the garbage one admin import leaves.
func BenchmarkImportCSV(b *testing.B) {
	buf := benchCSV(100_000)
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.ImportCSV("d", KindIndependent, bytes.NewReader(buf)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchXRelCSV is an n-row x-relation CSV shaped like a served one: x-tuples
// of one to five alternatives whose probabilities sum to at most 1,
// two-decimal scores, four-decimal probabilities.
func benchXRelCSV(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	buf := []byte("score,prob,group\n")
	for g, left := 0, n; left > 0; g++ {
		size := min(1+rng.Intn(5), left)
		left -= size
		for range size {
			buf = strconv.AppendFloat(buf, rng.Float64()*10_000, 'f', 2, 64)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, 0.9/float64(size), 'f', 4, 64)
			buf = append(buf, ",g"...)
			buf = strconv.AppendInt(buf, int64(g), 10)
			buf = append(buf, '\n')
		}
	}
	return buf
}

// BenchmarkImportCSVXRelation imports a 5,000-row x-relation, the size
// servebench serves; allocs/op counts the and/xor tree builds with the
// rest of the import.
func BenchmarkImportCSVXRelation(b *testing.B) {
	buf := benchXRelCSV(5_000)
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.ImportCSV("x", KindXRelation, bytes.NewReader(buf)); err != nil {
			b.Fatal(err)
		}
	}
}
