package serve

// The wire format: JSON encodings of engine.Query and engine.Result. The
// same conversion functions build the HTTP responses and the in-process
// responses of `prfserve -oneshot`, so the serve smoke test can certify the
// HTTP path against Engine.Rank byte for byte.

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pdb"
)

// Complex is the wire form of a complex number: [real, imaginary].
type Complex [2]float64

// Term is the wire form of one u·PRFe(α) term of a combination query.
type Term struct {
	U     Complex `json:"u"`
	Alpha Complex `json:"alpha"`
}

// WireQuery is the JSON form of engine.Query. Metrics are lowercase names
// ("prfe", "prfomega", "pth", "erank", "prfecombo"); outputs are "values"
// (the default), "ranking" and "topk". MetricPRF has no wire form — its ω
// is an arbitrary Go function — and is rejected at parse time.
type WireQuery struct {
	Metric  string    `json:"metric"`
	Output  string    `json:"output,omitempty"`
	Alpha   float64   `json:"alpha,omitempty"`
	Alphas  []float64 `json:"alphas,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
	H       int       `json:"h,omitempty"`
	K       int       `json:"k,omitempty"`
	Terms   []Term    `json:"terms,omitempty"`
}

// metricNames maps wire names onto engine metrics.
var metricNames = map[string]engine.Metric{
	"prfe":         engine.MetricPRFe,
	"prfomega":     engine.MetricPRFOmega,
	"pth":          engine.MetricPTh,
	"erank":        engine.MetricERank,
	"prfecombo":    engine.MetricPRFeCombo,
	"globaltopk":   engine.MetricGlobalTopk,
	"expectedrank": engine.MetricExpectedRank,
	"medianrank":   engine.MetricMedianRank,
}

// wireMetricName inverts metricNames for responses.
func wireMetricName(m engine.Metric) string {
	for name, mm := range metricNames {
		if mm == m {
			return name
		}
	}
	return m.String()
}

// ToQuery converts the wire form into the engine's declarative Query.
func (w WireQuery) ToQuery() (engine.Query, error) {
	var q engine.Query
	m, ok := metricNames[w.Metric]
	if !ok {
		if w.Metric == "prf" {
			return q, fmt.Errorf("serve: metric %q needs an arbitrary ω function and has no wire form; use prfomega (a weight vector) or prfecombo (an exponential-sum approximation)", w.Metric)
		}
		return q, fmt.Errorf("serve: unknown metric %q (want prfe|prfomega|pth|erank|prfecombo|globaltopk|expectedrank|medianrank)", w.Metric)
	}
	q.Metric = m
	switch w.Output {
	case "", "values":
		q.Output = engine.OutputValues
	case "ranking":
		q.Output = engine.OutputRanking
	case "topk":
		q.Output = engine.OutputTopK
	default:
		return q, fmt.Errorf("serve: unknown output %q (want values|ranking|topk)", w.Output)
	}
	// Reject non-finite parameters here, before the engine ever sees the
	// query: a NaN/Inf that slipped through would otherwise be encoded
	// bit-exactly into cache keys (engine.Query.CacheKey and the byte
	// cache) and poison warm entries the engine's own validation only
	// partially guards (pdb.CheckWeights admits ±Inf). Each rejection is a
	// typed serve error the handlers map to a 400.
	if !isFinite(w.Alpha) {
		return q, fmt.Errorf("serve: non-finite alpha %v", w.Alpha)
	}
	for i, a := range w.Alphas {
		if !isFinite(a) {
			return q, fmt.Errorf("serve: non-finite alphas[%d] = %v", i, a)
		}
	}
	for i, x := range w.Weights {
		if !isFinite(x) {
			return q, fmt.Errorf("serve: non-finite weights[%d] = %v", i, x)
		}
	}
	for i, t := range w.Terms {
		for _, part := range [...]float64{t.U[0], t.U[1], t.Alpha[0], t.Alpha[1]} {
			if !isFinite(part) {
				return q, fmt.Errorf("serve: non-finite terms[%d]", i)
			}
		}
	}
	q.Alpha = w.Alpha
	q.Alphas = w.Alphas
	q.Weights = w.Weights
	q.H = w.H
	q.K = w.K
	if len(w.Terms) > 0 {
		q.Terms = make([]core.ExpTerm, len(w.Terms))
		for i, t := range w.Terms {
			q.Terms[i] = core.ExpTerm{
				U:     complex(t.U[0], t.U[1]),
				Alpha: complex(t.Alpha[0], t.Alpha[1]),
			}
		}
	}
	return q, nil
}

// isFinite reports whether f is neither NaN nor ±Inf.
func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// WireResult is the JSON form of engine.Result: exactly one of Values,
// Complex or Ranking is set, mirroring the query's metric and output form.
type WireResult struct {
	Metric  string      `json:"metric"`
	Alpha   float64     `json:"alpha,omitempty"`
	Values  []float64   `json:"values,omitempty"`
	Complex []Complex   `json:"complex,omitempty"`
	Ranking pdb.Ranking `json:"ranking,omitempty"`
}

// FromResult converts one engine result into its wire form.
func FromResult(r *engine.Result) WireResult {
	w := WireResult{
		Metric:  wireMetricName(r.Metric),
		Alpha:   r.Alpha,
		Values:  r.Values,
		Ranking: r.Ranking,
	}
	if r.Complex != nil {
		w.Complex = make([]Complex, len(r.Complex))
		for i, c := range r.Complex {
			w.Complex[i] = Complex{real(c), imag(c)}
		}
	}
	return w
}

// FromResults converts a batch of engine results.
func FromResults(rs []engine.Result) []WireResult {
	out := make([]WireResult, len(rs))
	for i := range rs {
		out[i] = FromResult(&rs[i])
	}
	return out
}

// RankRequest is the body of POST /rank and POST /rankbatch.
type RankRequest struct {
	// Dataset names one of the server's loaded datasets.
	Dataset string `json:"dataset"`
	// Query declares the computation in wire form.
	Query WireQuery `json:"query"`
	// TimeoutMS optionally bounds this request's evaluation time; it is
	// clamped to the server's MaxTimeout. Zero uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Stream asks /rankbatch to emit each grid-point result as it is
	// computed via chunked transfer encoding instead of buffering the full
	// body. The reassembled stream is byte-identical to the buffered
	// response. Only valid on /rankbatch with the default results format.
	Stream bool `json:"stream,omitempty"`
	// Format selects the /rankbatch payload shape: "" or "results" is the
	// per-grid-point object form, "columnar" the parallel-array form for
	// large grids. Only valid on /rankbatch.
	Format string `json:"format,omitempty"`
}

// RankResponse is the body of a successful POST /rank.
type RankResponse struct {
	Dataset string `json:"dataset"`
	WireResult
}

// BatchResponse is the body of a successful POST /rankbatch: one result per
// α grid point, in grid order.
type BatchResponse struct {
	Dataset string       `json:"dataset"`
	Results []WireResult `json:"results"`
}

// ColumnarBatch is the compact wire form of a batch: one parallel array
// per field instead of one object per grid point, which drops the repeated
// `{"metric":...,"alpha":...}` framing from large grids. Exactly one of
// Values, Complex or Rankings is set; index i of every array belongs to
// Alphas[i].
type ColumnarBatch struct {
	Dataset  string        `json:"dataset"`
	Format   string        `json:"format"` // always "columnar"
	Metric   string        `json:"metric"`
	Alphas   []float64     `json:"alphas"`
	Values   [][]float64   `json:"values,omitempty"`
	Complex  [][]Complex   `json:"complex,omitempty"`
	Rankings []pdb.Ranking `json:"rankings,omitempty"`
}

// FromResultsColumnar converts a batch of engine results into the columnar
// wire form.
func FromResultsColumnar(dataset string, rs []engine.Result) ColumnarBatch {
	c := ColumnarBatch{Dataset: dataset, Format: "columnar", Alphas: make([]float64, len(rs))}
	for i := range rs {
		w := FromResult(&rs[i])
		if i == 0 {
			c.Metric = w.Metric
		}
		c.Alphas[i] = w.Alpha
		switch {
		case w.Ranking != nil:
			c.Rankings = append(c.Rankings, w.Ranking)
		case w.Complex != nil:
			c.Complex = append(c.Complex, w.Complex)
		default:
			c.Values = append(c.Values, w.Values)
		}
	}
	return c
}

// Rows maps the columnar form back onto the per-grid-point form, inverting
// FromResultsColumnar — the equivalence certification in the tests and the
// smoke script compares Rows() output against the buffered results array.
func (c ColumnarBatch) Rows() []WireResult {
	out := make([]WireResult, len(c.Alphas))
	for i := range c.Alphas {
		out[i] = WireResult{Metric: c.Metric, Alpha: c.Alphas[i]}
		switch {
		case c.Rankings != nil:
			out[i].Ranking = c.Rankings[i]
		case c.Complex != nil:
			out[i].Complex = c.Complex[i]
		default:
			out[i].Values = c.Values[i]
		}
	}
	return out
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is a stable machine-readable discriminator: bad_request,
	// unknown_dataset, not_found, method_not_allowed, too_large,
	// unsupported_media_type or deadline_exceeded.
	Code string `json:"code"`
}
