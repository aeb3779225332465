package store_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pdb"
	"repro/internal/serve"
	"repro/internal/store"
)

// TestCSVIngest pins the CSV dialect the store accepts: the encoding/csv
// record rules (quoting, CRLF, blank lines), the header rule, the exact
// error texts, the group-column guard and the x-relation singleton rule.
// Every case states the full parsed dataset or the full error text, so a
// parser rewrite cannot drift silently.
func TestCSVIngest(t *testing.T) {
	ind := func(ids []pdb.TupleID, scores, probs []float64) *store.Dataset {
		return &store.Dataset{Kind: store.KindIndependent, IDs: ids, Scores: scores, Probs: probs}
	}
	xrel := func(scores, probs []float64, groups []uint32) *store.Dataset {
		return &store.Dataset{Kind: store.KindXRelation, Scores: scores, Probs: probs, Groups: groups}
	}
	plain := ind([]pdb.TupleID{1, 0, 2}, []float64{130, 120, 80}, []float64{0.7, 0.4, 0.3})
	for _, tc := range []struct {
		name, kind, in string
		want           *store.Dataset
		wantErr        string
	}{
		{name: "plain", kind: store.KindIndependent, in: "120,0.4\n130,0.7\n80,0.3\n", want: plain},
		{name: "header", kind: store.KindIndependent, in: "score,probability\n120,0.4\n130,0.7\n80,0.3\n", want: plain},
		{name: "crlf", kind: store.KindIndependent, in: "score,probability\r\n120,0.4\r\n130,0.7\r\n80,0.3\r\n", want: plain},
		{name: "quoted", kind: store.KindIndependent, in: "\"score\",\"probability\"\n\"120\",\"0.4\"\n130,\"0.7\"\n\"80\",0.3\n", want: plain},
		{name: "blank lines", kind: store.KindIndependent, in: "\n120,0.4\n\n\n130,0.7\r\n\r\n80,0.3\n\n", want: plain},
		{name: "no trailing newline", kind: store.KindIndependent, in: "120,0.4\n130,0.7\n80,0.3", want: plain},
		{name: "empty group column", kind: store.KindIndependent, in: "120,0.4,\n130,0.7,\n80,0.3,\n", want: plain},
		{name: "ties by input position", kind: store.KindIndependent, in: "5,0.5\n7,0.1\n5,0.25\n-0,1\n0,0\n",
			want: ind([]pdb.TupleID{1, 0, 2, 3, 4}, []float64{7, 5, 5, 0, 0}, []float64{0.1, 0.5, 0.25, 1, 0})},
		{name: "one numeric header column is data", kind: store.KindIndependent, in: "score,0.5\n1,0.5\n",
			wantErr: `store: line 1: bad score "score"`},
		{name: "typo'd first row", kind: store.KindIndependent, in: "1,O.5\n2,0.5\n",
			wantErr: `store: line 1: bad probability "O.5"`},
		{name: "typo after blank lines", kind: store.KindIndependent, in: "1,0.5\n\n\n2x,0.5\n",
			wantErr: `store: line 2: bad score "2x"`},
		{name: "short row", kind: store.KindIndependent, in: "1,0.5\n2\n",
			wantErr: "store: line 2: need score,probability"},
		{name: "bad quote", kind: store.KindIndependent, in: "1,0.5\n2,\"0.5\n",
			wantErr: "parse error on line 2, column 8: extraneous or missing \" in quoted-field"},
		{name: "probability above one", kind: store.KindIndependent, in: "1,0.5\n2,1.5\n",
			wantErr: "pdb: tuple 1 has invalid probability 1.5"},
		{name: "NaN probability", kind: store.KindIndependent, in: "1,NaN\n",
			wantErr: "pdb: tuple 0 has invalid probability NaN"},
		{name: "infinite score", kind: store.KindIndependent, in: "1,0.5\n2,0.5\ninf,0.5\n",
			wantErr: "pdb: tuple 2 has invalid score +Inf"},
		{name: "empty", kind: store.KindIndependent, in: "", wantErr: "store: empty dataset"},
		{name: "header only", kind: store.KindIndependent, in: "score,probability\r\n", wantErr: "store: empty dataset"},
		{name: "independent with group column", kind: store.KindIndependent, in: "1,0.5\n2,0.5,a\n",
			wantErr: "store: independent CSV has a group column; load it as an x-relation (kind xrel)"},
		{name: "independent with group after a bad row", kind: store.KindIndependent, in: "1,0.5,a\n2,x\n",
			wantErr: `store: line 2: bad probability "x"`},
		{name: "xrel singletons", kind: store.KindXRelation, in: "score,probability,group\r\n120,0.4,\r\n130,0.7,b\r\n80,0.3,\r\n95,0.2,b\r\n60,0.5\r\n",
			want: xrel([]float64{120, 130, 95, 80, 60}, []float64{0.4, 0.7, 0.2, 0.3, 0.5}, []uint32{0, 1, 1, 2, 3})},
		{name: "xrel quoted labels", kind: store.KindXRelation, in: "1,0.25,\"a,b\"\n2,0.5,a\n3,0.25,\"a,b\"\n",
			want: xrel([]float64{1, 3, 2}, []float64{0.25, 0.25, 0.5}, []uint32{0, 0, 1})},
		{name: "xrel group over one", kind: store.KindXRelation, in: "1,0.75,a\n2,0.5,a\n",
			wantErr: "andxor: ∨ node edge probabilities sum to 1.25 > 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := store.Parse(tc.kind, strings.NewReader(tc.in))
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("error %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parsed %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestAdminImportBodyLimit pins the admin upload cap: a CSV body over
// MaxAdminBodyBytes is a 413 too_large, one at the cap imports.
func TestAdminImportBodyLimit(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "segs"))
	if err != nil {
		t.Fatal(err)
	}
	const limit = 64
	ts := httptest.NewServer(serve.New(serve.Options{Store: st, AdminToken: "tok", MaxAdminBodyBytes: limit}))
	defer ts.Close()
	post := func(body string) (int, string) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/datasets/d?kind=ind", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer tok")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	row := "10,0.5\r\n" // 8 bytes
	if code, body := post(strings.Repeat(row, limit/len(row)+1)); code != http.StatusRequestEntityTooLarge || !strings.Contains(body, `"too_large"`) {
		t.Fatalf("over the cap: %d %s", code, body)
	}
	if code, body := post(strings.Repeat(row, limit/len(row))); code != http.StatusOK {
		t.Fatalf("at the cap: %d %s", code, body)
	}
}
