package benchwork

//lint:file-allow errdiscipline bench fixtures fail fast: a broken fixture must abort the run rather than record a bogus measurement

// The load-generator arm of cmd/bench: a vegeta-style closed-loop driver
// that measures the serving layer the way a service is measured — QPS and
// latency percentiles under concurrency against a live HTTP server (the
// in-process fixture or an external -load-addr) — plus the cold-storm driver
// behind Suite.ColdStorm. ns/op benchmarks time one request at a time;
// these report what N concurrent dashboards actually see.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LoadRequest is one element of the load mix: a target URL and its POST
// body. Workers cycle through the mix round-robin.
type LoadRequest struct {
	URL  string
	Body []byte
}

// LoadResult is the measured outcome of one load run, emitted into the
// BENCH_N.json load section.
type LoadResult struct {
	Concurrency int     `json:"concurrency"`
	DurationS   float64 `json:"duration_s"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	QPS         float64 `json:"qps"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
	// AllocPerReq is the client-process TotalAlloc delta divided by the
	// request count. Against the in-process fixture it includes the
	// server's allocations too — which is the interesting number: a
	// byte-cache hit should not allocate a fresh 1 MB body.
	AllocPerReq float64 `json:"alloc_bytes_per_req"`
}

// loadClient builds an http.Client that can actually sustain conc parallel
// connections (the default transport caps idle conns per host at 2, which
// would serialize the run on connection churn).
func loadClient(conc int) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        conc,
		MaxIdleConnsPerHost: conc,
	}
	return &http.Client{Transport: tr}
}

// RunLoad drives the request mix with conc closed-loop workers for roughly
// dur and reports throughput, latency percentiles and allocation rate.
func RunLoad(reqs []LoadRequest, conc int, dur time.Duration) LoadResult {
	if len(reqs) == 0 || conc <= 0 {
		return LoadResult{}
	}
	client := loadClient(conc)
	defer client.CloseIdleConnections()

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	var errors atomic.Int64
	latencies := make([][]time.Duration, conc)
	deadline := time.Now().Add(dur)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			lats := make([]time.Duration, 0, 4096)
			for i := w; time.Now().Before(deadline); i++ {
				req := reqs[i%len(reqs)]
				t0 := time.Now()
				if err := postDrain(client, req.URL, req.Body); err != nil {
					errors.Add(1)
					continue
				}
				lats = append(lats, time.Since(t0))
			}
			latencies[w] = lats
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	all := make([]time.Duration, 0, 1<<16)
	for _, lats := range latencies {
		all = append(all, lats...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	n := int64(len(all))
	res := LoadResult{
		Concurrency: conc,
		DurationS:   elapsed.Seconds(),
		Requests:    n,
		Errors:      errors.Load(),
		P50MS:       percentileMS(all, 0.50),
		P95MS:       percentileMS(all, 0.95),
		P99MS:       percentileMS(all, 0.99),
	}
	if elapsed > 0 {
		res.QPS = float64(n) / elapsed.Seconds()
	}
	if n > 0 {
		res.AllocPerReq = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	return res
}

// percentileMS picks the p-quantile (nearest-rank) of sorted latencies, in
// milliseconds.
func percentileMS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// postDrain posts one body and drains the response, erroring on non-200.
func postDrain(c *http.Client, url string, body []byte) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// coldStorm fires rounds storms of conc simultaneous identical requests,
// each round against a key the server has never seen (bodyFor must return a
// fresh body per round), and returns the total wall time. Storm clients
// negotiate gzip explicitly (and drain the compressed bytes as they arrive,
// like any client pool that can inflate on its own): with the wire-layer
// single-flight latch one evaluate+encode+compress per round serves all
// conc callers; without it every caller pays the encode and compression —
// the ratio of the two wall times is the latch's speedup.
func coldStorm(url string, conc, rounds int, bodyFor func(round int) []byte) time.Duration {
	client := loadClient(conc)
	defer client.CloseIdleConnections()
	start := time.Now()
	for round := 0; round < rounds; round++ {
		body := bodyFor(round)
		var wg sync.WaitGroup
		release := make(chan struct{})
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-release
				if err := postDrainGzip(client, url, body); err != nil {
					panic(fmt.Sprintf("cold storm: %v", err))
				}
			}()
		}
		close(release)
		wg.Wait()
	}
	return time.Since(start)
}

// postDrainGzip is postDrain with gzip negotiated explicitly, which also
// disables net/http's transparent inflate — the storm drains the bytes that
// actually cross the wire.
func postDrainGzip(c *http.Client, url string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}
