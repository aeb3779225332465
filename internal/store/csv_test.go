package store

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
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
	c, order, err := scanIndependent(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s %q: scan: %v", kind, data, err)
	}
	var m memFile
	if _, err := writeSegment(&m, kind, len(order), 1, c.independentSections(order)); err != nil {
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, KindIndependent, data)
		checkAgainstReference(t, KindXRelation, data)
	})
}

// The fast decimal path must give ParseFloat's bits for every plain
// decimal it accepts, and leave everything else to ParseFloat.
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
		f1, ok1 := parseNum(s)
		f2, ok2 := parseNum([]byte(s))
		for _, got := range [...]struct {
			f  float64
			ok bool
		}{{f1, ok1}, {f2, ok2}} {
			if got.ok != (err == nil) || got.ok && math.Float64bits(got.f) != math.Float64bits(want) {
				t.Fatalf("parseNum(%q) = %v, %v; ParseFloat %v, %v", s, got.f, got.ok, want, err)
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

// BenchmarkImportCSV imports a 10⁵-row independent CSV shaped like a
// served table (three-decimal scores, four-decimal probabilities); B/op is
// the garbage one admin import leaves.
func BenchmarkImportCSV(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	buf = append(buf, "score,prob\n"...)
	for i := 0; i < 100_000; i++ {
		buf = strconv.AppendFloat(buf, rng.ExpFloat64()*30, 'f', 3, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, 0.01+0.98*rng.Float64(), 'f', 4, 64)
		buf = append(buf, '\n')
	}
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
