package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spanjoin"
	"spanjoin/client"
	"spanjoin/internal/workload"
	"spanjoin/server"
)

// serveRate is the offered load of serve in requests per second: about a
// third of the closed-loop capacity of this mix with two callers (46/s at
// 2 vCPU, see README.md). At half the capacity a few seconds of host
// slowdown queued requests up and doubled the tail from run to run; a
// third leaves headroom. It is fixed so that two commits see the same
// load.
const serveRate = 15

// serveMix is one cycle of serve's requests: seven warm reads, one cold
// read and two writes. Five of the seven reads use the dense pattern, so
// the warm median lands inside the dense reads, not between two patterns.
var serveMix = []string{"count.dense", "page.dense", "add", "cursor.dense", "sample.dense", "count.small", "cold", "page.dense", "add", "sample.small"}

// serve models independent users of the HTTP service: an open loop sends
// each request at its due time over at most nproc connections, to a
// durable corpus (fsync always, skip index, admission gate of nproc)
// served by server.New on a 127.0.0.1 listener. Writes run beside reads;
// the added documents match no read pattern, so every read keeps one
// expected answer while the corpus grows.
type serveSys struct {
	cfg  config
	dir  string
	c    *spanjoin.Corpus
	hs   *http.Server
	done chan struct{}
	base string
	hc   *http.Client
	cl   *client.Client
	ids  []spanjoin.DocID
	docs []string
	want map[string]*expect

	mu     sync.Mutex
	cursor map[string]cursorAt // last page's continuation per pattern
}

type cursorAt struct {
	token string
	off   uint64
}

// serveReq is one scheduled request's inputs, drawn from the seed before
// the run.
type serveReq struct {
	kind string
	off  uint64
	seed int64
	text string
}

func runServe(cfg config) (*report, error) {
	rep := newReport()
	env := environment(cfg)
	env["fsync"] = "always"
	env["offered_rate_per_s"] = serveRate
	rep.info["env"] = env
	n := 0
	sys, err := timedSetups(rep, func() (*serveSys, error) {
		n++
		return buildServe(cfg, n)
	})
	if err != nil {
		return nil, err
	}
	defer sys.close()
	if err := reference(rep, sys.reference); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if err := sys.openLoop(rep, tr); err != nil {
		return nil, err
	}
	if tr != nil {
		in := probeInputs{docs: sys.docs, corpus: sys.c, patterns: []string{densePattern, smallPattern}}
		if err := probeLayers(cfg, rep, tr, in); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		if err := finishTrace(cfg, rep, tr); err != nil {
			return nil, err
		}
	}
	return rep.finish(), nil
}

func buildServe(cfg config, rep int) (*serveSys, error) {
	nproc := runtime.NumCPU()
	s := &serveSys{
		cfg:    cfg,
		dir:    filepath.Join(cfg.dir, fmt.Sprintf("serve-%d-%d", os.Getpid(), rep)),
		docs:   corpusDocs(workload.Rand(cfg.seed), cfg.sized(300, 20)),
		done:   make(chan struct{}),
		cursor: map[string]cursorAt{},
	}
	if err := os.RemoveAll(s.dir); err != nil {
		return nil, err
	}
	var err error
	s.c, err = spanjoin.Open(s.dir, spanjoin.WithSync(mustPolicy("always")), spanjoin.WithIndex(), spanjoin.WithMaxConcurrent(nproc))
	if err != nil {
		return nil, err
	}
	for _, d := range s.docs {
		id, err := s.c.AddErr(d)
		if err != nil {
			s.c.Close()
			return nil, err
		}
		s.ids = append(s.ids, id)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.c.Close()
		return nil, err
	}
	s.hs = &http.Server{Handler: server.New(s.c, server.Config{}).Handler()}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	s.base = "http://" + ln.Addr().String()
	s.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	if s.cl, err = client.New(s.base, client.WithHTTPClient(s.hc), client.WithRetries(0)); err != nil {
		s.close()
		return nil, err
	}
	ctx := context.Background()
	for _, p := range readPatterns {
		if _, err := s.cl.Count(ctx, p, "search", 0); err != nil {
			s.close()
			return nil, err
		}
		if _, err := s.cl.Eval(ctx, client.EvalRequest{Pattern: p, Mode: "search", Limit: pageSize}); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func mustPolicy(name string) spanjoin.SyncPolicy {
	p, err := spanjoin.ParseSyncPolicy(name)
	if err != nil {
		panic(err)
	}
	return p
}

// close stops the server, waits for it, closes the corpus and removes
// its data.
func (s *serveSys) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.hc.CloseIdleConnections()
	s.c.Close()
	os.RemoveAll(s.dir)
}

func (s *serveSys) reference(rep *report) error {
	s.want = map[string]*expect{}
	for name, p := range readPatterns {
		x, err := refSpanner(p, s.ids, s.docs)
		if err != nil {
			return err
		}
		n, err := s.c.CountSearch(context.Background(), p)
		if err != nil {
			return err
		}
		got, _ := n.Uint64()
		rep.verify(got == uint64(len(x.rows)), "%s: CountSearch %d, per-document Eval %d", name, got, len(x.rows))
		s.want[name] = x
	}
	s.want["dense"].skew(s.cfg.skew)
	return nil
}

// schedule draws every request of the run from the seed.
func (s *serveSys) schedule(n int) []serveReq {
	r := rand.New(rand.NewSource(s.cfg.seed + 1))
	adds := plainDocs(r, n/5+1)
	reqs := make([]serveReq, n)
	for i := range reqs {
		q := serveReq{kind: serveMix[i%len(serveMix)], seed: r.Int63()}
		_, name := splitKind(q.kind)
		switch {
		case q.kind == "add":
			q.text, adds = adds[0], adds[1:]
		case q.kind == "cold":
			q.text = coldPattern(r)
		case name != "":
			q.off = uint64(r.Int63n(int64(max(len(s.want[name].rows), 1))))
		}
		reqs[i] = q
	}
	return reqs
}

// opResult is one request's outcome.
type opResult struct {
	kind          string
	traced        bool
	late, lat, ft time.Duration
	err           error
}

// openLoop sends request i at t0 + i/serveRate from nproc sender
// goroutines. A request whose senders are all busy goes out late;
// latency runs from the due time, so a stall counts against every
// request queued behind it.
func (s *serveSys) openLoop(rep *report, tr *tracer) error {
	period := time.Second / serveRate
	n := int(s.cfg.seconds * serveRate)
	reqs := s.schedule(n)
	results := make([]opResult, n)
	acked := make([]int64, n)
	var next atomic.Int64
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	statsBefore, gate, cache := s.c.DurabilityStats(), s.c.GateStats(), s.c.CacheStats()
	t0 := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(i) * period)
				time.Sleep(time.Until(due))
				res := &results[i]
				res.kind = reqs[i].kind
				res.traced = tr != nil && (i/len(serveMix))%2 == 0
				res.late = time.Since(due)
				acked[i] = -1
				res.ft, res.err = s.do(due, reqs[i], res.traced, tr, &acked[i])
				res.lat = time.Since(due)
			}
		}()
	}
	wg.Wait()
	return s.summarize(rep, time.Since(t0), tr, reqs, results, acked, mem, statsBefore, gate, cache)
}

// do sends one request and checks its answer.
func (s *serveSys) do(due time.Time, q serveReq, traced bool, tr *tracer, acked *int64) (first time.Duration, err error) {
	ctx := context.Background()
	end := func() {}
	if traced {
		ctx, end = tr.start(ctx, "client."+q.kind)
	}
	defer end()
	var once sync.Once
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{GotFirstResponseByte: func() {
		once.Do(func() { first = time.Since(due) })
	}})
	op, name := splitKind(q.kind)
	p, x := readPatterns[name], s.want[name]
	switch op {
	case "count":
		var n *big.Int
		if n, err = s.cl.Count(ctx, p, "search", 0); err == nil {
			err = x.checkBig(q.kind, n)
		}
	case "cold":
		var n *big.Int
		if n, err = s.cl.Count(ctx, q.text, "search", 0); err == nil {
			err = s.want["dense"].checkBig(q.kind, n)
		}
	case "page", "cursor":
		req := client.EvalRequest{Pattern: p, Mode: "search", Offset: q.off, Limit: pageSize, Trace: traced}
		off := q.off
		if op == "cursor" {
			s.mu.Lock()
			c, ok := s.cursor[name]
			s.mu.Unlock()
			if ok && c.token != "" {
				req = client.EvalRequest{Cursor: c.token, Limit: pageSize, Trace: traced}
				off = c.off
			}
		}
		sent := time.Now()
		var pg *client.Page
		if pg, err = s.cl.Eval(ctx, req); err == nil {
			// The server's stage offsets count from its own receipt of
			// the request; the send time stands in for it.
			tr.stages(ctx, sent, pg.Trace)
			s.mu.Lock()
			s.cursor[name] = cursorAt{token: pg.Next, off: off + pageSize}
			s.mu.Unlock()
			err = x.checkWirePage(q.kind, off, pg)
		}
	case "sample":
		var ms []client.Match
		if ms, err = s.cl.Sample(ctx, p, "search", pageSize, q.seed); err == nil {
			err = x.checkWireSample(q.kind, ms)
		}
	case "add":
		var id uint64
		if id, err = s.add(ctx, q.text); err == nil {
			*acked = int64(id)
		}
	}
	return first, err
}

// add posts one document and returns its acknowledged ID.
func (s *serveSys) add(ctx context.Context, text string) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/add", strings.NewReader(text))
	if err != nil {
		return 0, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("POST /add: status %d: %s", resp.StatusCode, b)
	}
	var body server.AddBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, fmt.Errorf("POST /add: %w", err)
	}
	return body.ID, nil
}

// readBack fetches a document with GET /doc.
func (s *serveSys) readBack(id uint64) (string, error) {
	resp, err := s.hc.Get(s.base + "/doc?id=" + strconv.FormatUint(id, 10))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /doc: status %d", resp.StatusCode)
	}
	var body server.DocBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return "", err
	}
	return body.Text, nil
}

func (s *serveSys) summarize(rep *report, elapsed time.Duration, tr *tracer, reqs []serveReq, results []opResult, acked []int64, mem runtime.MemStats, before spanjoin.DurabilityStats, gate spanjoin.GateStats, cache spanjoin.CacheStats) error {
	var warm, first, cold, adds, late, traced latencies
	kinds := map[string]*latencies{}
	done := 0
	for _, r := range results {
		rep.record(r.err)
		late.add(r.late)
		if r.err != nil {
			continue
		}
		done++
		switch {
		case r.kind == "add":
			adds.add(r.lat)
		case r.kind == "cold":
			cold.add(r.lat)
		case r.traced:
			traced.add(r.lat)
		default:
			warm.add(r.lat)
			if denseRead(r.kind) {
				first.add(r.ft)
			}
			if kinds[r.kind] == nil {
				kinds[r.kind] = &latencies{}
			}
			kinds[r.kind].add(r.lat)
		}
	}
	memory(rep, mem, len(results), s)
	summarize(rep, done, elapsed, &warm, &first, &cold, kinds)
	rep.info["add_ms_p50"] = adds.p(0.5)
	rep.info["lateness_ms_p90"] = late.p(0.9)
	var grewDocs, grewBytes int
	for i, id := range acked {
		if id < 0 {
			continue
		}
		grewDocs++
		grewBytes += len(reqs[i].text)
		text, err := s.readBack(uint64(id))
		if err != nil {
			return fmt.Errorf("read-back: %w", err)
		}
		rep.verify(text == reqs[i].text, "GET /doc?id=%d returned %q, acked %q", id, text, reqs[i].text)
	}
	corpusBytes := 0
	for _, d := range s.docs {
		corpusBytes += len(d)
	}
	rep.info["corpus"] = map[string]int{"docs": len(s.docs), "bytes": corpusBytes, "added_docs": grewDocs, "added_bytes": grewBytes}
	after := s.c.DurabilityStats()
	rep.info["wal_appends"] = after.Appends - before.Appends
	if tr != nil {
		rep.metrics["obs.trace_overhead"] = ratio(traced.p(0.5), warm.p(0.5))
		serviceLayers(rep, tr, s.c, gate, cache, len(results))
	}
	return nil
}

func (x *expect) checkBig(kind string, n *big.Int) error {
	if !n.IsUint64() || n.Uint64() != uint64(len(x.rows)) {
		return mismatchf("%s: count %s, want %d", kind, n, len(x.rows))
	}
	return nil
}

func (x *expect) checkWirePage(kind string, off uint64, pg *client.Page) error {
	if pg.Total == nil {
		return mismatchf("%s: no total", kind)
	}
	if err := x.checkBig(kind+" total", pg.Total); err != nil {
		return err
	}
	want := x.window(off)
	if len(pg.Matches) != len(want) {
		return mismatchf("%s at %d: %d rows, want %d", kind, off, len(pg.Matches), len(want))
	}
	for i, m := range pg.Matches {
		if got := wireKey(m); got != want[i] {
			return mismatchf("%s at %d: row %d is %s, want %s", kind, off, i, got, want[i])
		}
	}
	return nil
}

func (x *expect) checkWireSample(kind string, ms []client.Match) error {
	if len(x.set) > 0 && len(ms) != pageSize {
		return mismatchf("%s: %d rows, want %d", kind, len(ms), pageSize)
	}
	for _, m := range ms {
		if key := wireKey(m); !x.set[key] {
			return mismatchf("%s: %s is not a result of its document", kind, key)
		}
	}
	return nil
}
