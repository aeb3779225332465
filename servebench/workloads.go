package main

// The three workloads. Each runs closed loop from one client connection:
// the next request goes out only when the previous answer is read.
//
//   dashboard-hot  a fixed panel, replayed in seeded order after one warm
//                  pass: every timed read is a byte-cache hit, so only the
//                  wire path and net/http work.
//   explore-cold   fresh α, k or K on every read: no cache key repeats, so
//                  engine dispatch, kernels, sorting and encoding work and
//                  the caches only insert.
//   refresh-mixed  the panel with an admin re-import of the big table and
//                  the chain after every refreshEvery passes (by count,
//                  never by timer): store writes, lazy reopen and rebuilds
//                  beside hot reads.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/serve"
)

// refreshEvery is the number of panel passes between refreshes. A refresh
// turns 11 of the panel's 16 reads cold for one pass: the six PRFe ranks
// on the big table (the first one also materializes the lazy view), its
// identity sweep, and the chain reads (PT(h) rebuilds the chain's rank
// distribution). With 5 passes per refresh the cheap cold reads end near
// the 90th percentile and the cold ranks span about the 90th to the 97th,
// so p50 sits in the hot hits and p95 inside the cold ranks, and refresh
// plus rewarm set the throughput.
const refreshEvery = 5

// coldShares is the explore-cold mix per block of 100 reads. Cheapest to
// dearest the classes are chain, corr, consensus, rank, stream, sweep
// (about 0.3, 2.4, 8.5, 27, 39 and 75 ms on a 2.1 GHz Xeon VM, one P);
// the shares put p50 inside rank (30-70%) and p95 inside sweep (80-100%),
// never on the step between two classes.
var coldShares = []struct {
	class string
	n     int
}{{"chain", 5}, {"corr", 15}, {"consensus", 10}, {"stream", 10}, {"rank", 40}, {"sweep", 20}}

const panelK = 20

// buildPanel is the dashboard: 16 buffered reads covering PRFe top-k at
// six α values, a 16-point sweep (identity and gzip), x-relation and chain
// PRFe and sweeps, chain PT(h), and the consensus metrics.
func buildPanel(rng *rand.Rand) []*request {
	var panel []*request
	for _, a := range seededAlphas(rng, 6) {
		panel = append(panel, &request{class: "rank", path: "/rank", ds: dsBig,
			q: serve.WireQuery{Metric: "prfe", Output: "topk", Alpha: a, K: panelK}})
	}
	grid := sortedAlphas(rng, 16)
	for _, gz := range []bool{false, true} {
		panel = append(panel, &request{class: "sweep", path: "/rankbatch", ds: dsBig, gzip: gz,
			q: serve.WireQuery{Metric: "prfe", Output: "topk", Alphas: grid, K: panelK}})
	}
	a := seededAlphas(rng, 2)
	panel = append(panel,
		&request{class: "corr", path: "/rank", ds: dsXRel,
			q: serve.WireQuery{Metric: "prfe", Output: "topk", Alpha: a[0], K: panelK}},
		&request{class: "xrel-sweep", path: "/rankbatch", ds: dsXRel,
			q: serve.WireQuery{Metric: "prfe", Output: "topk", Alphas: sortedAlphas(rng, 8), K: panelK}},
		&request{class: "chain", path: "/rank", ds: dsChain,
			q: serve.WireQuery{Metric: "prfe", Output: "topk", Alpha: a[1], K: panelK}},
		&request{class: "chain-sweep", path: "/rankbatch", ds: dsChain,
			q: serve.WireQuery{Metric: "prfe", Output: "topk", Alphas: sortedAlphas(rng, 8), K: panelK}},
		&request{class: "chain-pth", path: "/rank", ds: dsChain,
			q: serve.WireQuery{Metric: "pth", Output: "topk", H: 10, K: panelK}},
		&request{class: "expectedrank", path: "/rank", ds: dsConsensus,
			q: serve.WireQuery{Metric: "expectedrank", Output: "topk", K: panelK}},
		&request{class: "consensus", path: "/rank", ds: dsConsensus,
			q: serve.WireQuery{Metric: "medianrank", Output: "topk", K: panelK}},
		&request{class: "globaltopk", path: "/rank", ds: dsConsensus,
			q: serve.WireQuery{Metric: "globaltopk", Output: "topk", K: panelK}},
	)
	return panel
}

// seededAlphas draws n PRFe parameters from [0.5, 0.999).
func seededAlphas(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.5 + 0.499*rng.Float64()
	}
	return out
}

// sortedAlphas draws a strictly increasing α grid, the shape the kinetic
// sweep serves.
func sortedAlphas(rng *rand.Rand, n int) []float64 {
	for {
		g := seededAlphas(rng, n)
		sort.Float64s(g)
		if len(slices.Compact(slices.Clone(g))) == n {
			return g
		}
	}
}

// coldGen yields explore-cold reads: blocks of 100 with the coldShares mix
// in seeded order, every read with a cache key not seen before.
type coldGen struct {
	rng       *rand.Rand
	block     []string
	medianKs  []int // a seeded permutation of 1..n-1, drawn without replacement
	keys      map[string]bool
	exhausted bool
}

func newColdGen(rng *rand.Rand, consensusN int) *coldGen {
	ks := rng.Perm(consensusN - 1)
	for i := range ks {
		ks[i]++
	}
	return &coldGen{rng: rng, medianKs: ks, keys: map[string]bool{}}
}

func (g *coldGen) next() *request {
	if len(g.block) == 0 {
		for _, s := range coldShares {
			for i := 0; i < s.n; i++ {
				g.block = append(g.block, s.class)
			}
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	class := g.block[0]
	g.block = g.block[1:]
	for {
		r := g.draw(class)
		key := requestKey(r)
		if !g.keys[key] {
			g.keys[key] = true
			return r
		}
	}
}

func (g *coldGen) draw(class string) *request {
	k := 5 + g.rng.Intn(46)
	alpha := seededAlphas(g.rng, 1)[0]
	switch class {
	case "rank":
		return &request{class: class, path: "/rank", ds: dsBig,
			q: serve.WireQuery{Metric: "prfe", Output: "topk", Alpha: alpha, K: k}}
	case "corr":
		return &request{class: class, path: "/rank", ds: dsXRel,
			q: serve.WireQuery{Metric: "prfe", Output: "topk", Alpha: alpha, K: k}}
	case "chain":
		return &request{class: class, path: "/rank", ds: dsChain,
			q: serve.WireQuery{Metric: "prfe", Output: "topk", Alpha: alpha, K: k}}
	case "sweep":
		return &request{class: class, path: "/rankbatch", ds: dsBig,
			q: serve.WireQuery{Metric: "prfe", Output: "topk", Alphas: sortedAlphas(g.rng, 16), K: k}}
	case "stream":
		return &request{class: class, path: "/rankbatch", ds: dsStream, stream: true,
			q: serve.WireQuery{Metric: "prfe", Output: "topk", Alphas: sortedAlphas(g.rng, 16), K: k}}
	default: // consensus
		kk := 1
		if len(g.medianKs) > 0 {
			kk, g.medianKs = g.medianKs[0], g.medianKs[1:]
		} else {
			g.exhausted = true
		}
		return &request{class: "consensus", path: "/rank", ds: dsConsensus,
			q: serve.WireQuery{Metric: "medianrank", Output: "topk", K: kk}}
	}
}

// requestKey identifies a read: endpoint, dataset, streaming and the
// engine's cache key for its query.
func requestKey(r *request) string {
	q, err := r.q.ToQuery()
	if err != nil {
		panic(err) // generated queries are valid by construction
	}
	key, _ := q.CacheKey()
	return r.path + "|" + r.ds + "|" + strconv.FormatBool(r.stream) + "|" + key
}

// window is what one timed phase measured.
type window struct {
	reads     []sample
	attempted int // reads and refreshes sent
	failed    int
	ops       int // reads and refreshes completed without error
	elapsed   time.Duration
	cpu       time.Duration
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	cache     counters
	refreshMS []float64
	rewarmMS  []float64
	problems  []string

	// Reference timings taken during the phase are excluded from elapsed
	// and cpu.

	// Traced phases only.
	transport, self                []float64
	wallSum, transportSum, selfSum float64
	busySum                        map[string]float64
	calls                          int
	respBytes                      int64
	adminMS                        []float64
}

func (w *window) problem(format string, args ...any) {
	if len(w.problems) < 20 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

// record books one timed read; check decides whether its answer is right.
func (w *window) record(r *request, cost string, res result, check func([]byte) error) {
	w.attempted++
	if res.err == nil {
		res.err = check(res.body)
	}
	if res.err != nil {
		w.failed++
		w.problem("%v", res.err)
		return
	}
	w.ops++
	ms := msOf(res.wall)
	w.reads = append(w.reads, sample{r.class, cost, ms})
	if res.span.busy == nil {
		return
	}
	handler := msOf(res.span.handler)
	var busy float64
	if w.busySum == nil {
		w.busySum = map[string]float64{}
	}
	for b, d := range res.span.busy {
		w.busySum[b] += msOf(d)
		busy += msOf(d)
	}
	w.transport = append(w.transport, ms-handler)
	w.self = append(w.self, handler-busy)
	w.wallSum += ms
	w.transportSum += ms - handler
	w.selfSum += handler - busy
	w.calls += res.span.calls
	w.respBytes += int64(len(res.body))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// begin and end bracket the timed phase with the process counters.
func (w *window) begin(h *harness, ct *counterTotal) (time.Time, error) {
	cur, err := h.counters()
	if err != nil {
		return time.Time{}, err
	}
	w.cache = ct.total(cur)
	if h.tr != nil {
		h.tr.resetMethods()
	}
	runtime.ReadMemStats(&w.mem0)
	w.cpu = cpuTime()
	h.clock.begin()
	return time.Now(), nil
}

func (w *window) end(h *harness, ct *counterTotal, start time.Time) error {
	w.elapsed = time.Since(start) - h.clock.paused
	w.cpu = cpuTime() - w.cpu - h.clock.pausedCPU
	runtime.ReadMemStats(&w.mem1)
	cur, err := h.counters()
	if err != nil {
		return err
	}
	w.cache = ct.total(cur).sub(w.cache)
	return nil
}

// panelAnswers builds the panel and the body the server must send for each
// entry, from a checker that is dropped before any timing starts.
func panelAnswers(h *harness, files []inputFile, rng *rand.Rand) ([]*request, [][]byte, error) {
	c, err := newChecker(files)
	if err != nil {
		return nil, nil, err
	}
	panel := buildPanel(rng)
	want := make([][]byte, len(panel))
	for i, r := range panel {
		if want[i], err = c.expect(r, h.names[r.ds]); err != nil {
			return nil, nil, err
		}
	}
	return panel, want, nil
}

// retarget rewrites the dataset name at the head of an expected body.
func retarget(body []byte, from, to string) []byte {
	head := func(name string) []byte { return []byte(`{"dataset":` + strconv.Quote(name)) }
	return append(head(to), bytes.TrimPrefix(body, head(from))...)
}

// panelRun drives dashboard-hot (refresh false) and refresh-mixed
// (refresh true) for d.
func panelRun(h *harness, files []inputFile, rng *rand.Rand, d time.Duration, refresh bool) (*window, error) {
	w := &window{}
	panel, want, err := panelAnswers(h, files, rng)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(panel))
	for i, r := range panel {
		bodies[i] = h.body(r)
	}
	// The warm pass fills every cache and checks every distinct answer
	// against the direct path; timed reads must then repeat these bytes.
	seen := make([][]byte, len(panel))
	for i, r := range panel {
		res := h.send(r, bodies[i])
		if res.err == nil {
			res.err = matches(r, res.body, want[i])
		}
		if res.err != nil {
			return nil, fmt.Errorf("warm pass: %w", res.err)
		}
		seen[i] = res.body
	}
	checks := make([]func([]byte) error, len(panel))
	for i := range panel {
		checks[i] = func(b []byte) error {
			if bytes.Equal(b, seen[i]) {
				return nil
			}
			if err := matches(panel[i], b, want[i]); err != nil {
				return err
			}
			seen[i] = b
			return nil
		}
	}
	var ct counterTotal
	big, chain := fileNamed(files, dsBig), fileNamed(files, dsChain)
	gens := map[string]uint64{dsBig: 1, dsChain: 1}
	start, err := w.begin(h, &ct)
	if err != nil {
		return nil, err
	}
	deadline := start.Add(d)
	rewarm := false
	// A refresh is always followed by its rewarm pass before the window
	// closes, so the run never ends on a half-built generation.
	for pass := 1; rewarm || time.Now().Before(deadline); pass++ {
		h.clock.tick()
		passStart := time.Now()
		for _, i := range rng.Perm(len(panel)) {
			cost := "hit"
			if rewarm {
				cost = "rewarm-" + panel[i].class
			}
			w.record(panel[i], cost, h.send(panel[i], bodies[i]), checks[i])
		}
		if rewarm {
			w.rewarmMS = append(w.rewarmMS, msOf(time.Since(passStart)))
			rewarm = false
		}
		if !refresh || pass%refreshEvery != 0 {
			continue
		}
		cur, err := h.counters()
		if err != nil {
			return nil, err
		}
		var refreshMS, adminMS float64
		w.attempted++
		ok := true
		for _, f := range []inputFile{big, chain} {
			old := h.names[f.name]
			ct.retire(cur, old)
			gen, res := h.refresh(f)
			if res.err == nil && gen != gens[f.name]+1 {
				res.err = fmt.Errorf("refresh of %s: generation %d after %d", f.name, gen, gens[f.name])
			}
			if res.err != nil {
				ok = false
				w.problem("%v", res.err)
				continue
			}
			gens[f.name] = gen
			refreshMS += msOf(res.wall)
			adminMS += msOf(res.span.handler)
			if now := h.names[f.name]; now != old {
				// Traced aliases carry the generation in the name.
				for i, r := range panel {
					if r.ds == f.name {
						bodies[i] = h.body(r)
						want[i] = retarget(want[i], old, now)
						seen[i] = nil
					}
				}
			}
		}
		if !ok {
			w.failed++
			continue
		}
		w.ops++
		w.refreshMS = append(w.refreshMS, refreshMS)
		if h.tr != nil {
			w.adminMS = append(w.adminMS, adminMS)
		}
		rewarm = true
	}
	return w, w.end(h, &ct, start)
}

// coldRun drives explore-cold for d. A seeded sample of the timed answers
// is kept and checked against the direct path after the window closes.
func coldRun(h *harness, files []inputFile, rng *rand.Rand, d time.Duration, consensusN int) (*window, error) {
	w := &window{}
	g := newColdGen(rng, consensusN)
	type kept struct {
		r    *request
		body []byte
	}
	var sample []kept
	// One untimed read per class first pays one-time set-up outside the
	// window; its answers are checked too. A PRFe rank on the stream table
	// comes first: streamed sweeps on a lazy view answer from its score
	// prefix until some α forces a full load, so loading the view up front
	// keeps every timed stream on the same path.
	warm := []*request{{class: "stream", path: "/rank", ds: dsStream,
		q: serve.WireQuery{Metric: "prfe", Output: "topk", Alpha: 0.75, K: panelK}}}
	for _, s := range coldShares {
		warm = append(warm, g.draw(s.class))
	}
	for _, r := range warm {
		g.keys[requestKey(r)] = true
		res := h.send(r, h.body(r))
		if res.err != nil {
			return nil, fmt.Errorf("warm-up: %w", res.err)
		}
		sample = append(sample, kept{r, res.body})
	}
	var ct counterTotal
	start, err := w.begin(h, &ct)
	if err != nil {
		return nil, err
	}
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		h.clock.tick()
		r := g.next()
		res := h.send(r, h.body(r))
		keep := rng.Intn(8) == 0 && len(sample) < 48
		w.record(r, r.class, res, func(b []byte) error {
			if len(b) == 0 || b[len(b)-1] != '\n' {
				return fmt.Errorf("%s: truncated body", r.class)
			}
			return nil
		})
		if keep && res.err == nil {
			sample = append(sample, kept{r, res.body})
		}
	}
	if err := w.end(h, &ct, start); err != nil {
		return nil, err
	}
	if g.exhausted {
		w.problem("explore-cold: Median-Rank K values exhausted; cache keys repeated")
		w.failed++
	}
	if w.cache.byteHits != 0 || w.cache.engHits != 0 {
		w.problem("explore-cold: %d byte-cache and %d engine-cache hits; no key may repeat",
			w.cache.byteHits, w.cache.engHits)
		w.failed++
	}
	c, err := newChecker(files)
	if err != nil {
		return nil, err
	}
	for _, k := range sample {
		want, err := c.expect(k.r, h.names[k.r.ds])
		if err != nil {
			return nil, err
		}
		if err := matches(k.r, k.body, want); err != nil {
			w.problem("%v", err)
			w.failed++
		}
	}
	return w, nil
}

func fileNamed(files []inputFile, name string) inputFile {
	for _, f := range files {
		if f.name == name {
			return f
		}
	}
	panic("no input file " + name)
}
