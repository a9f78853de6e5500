package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spanjoin"
	"spanjoin/client"
	"spanjoin/internal/core"
	"spanjoin/internal/enum"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/ranked"
	"spanjoin/internal/rgx"
	"spanjoin/internal/vsa"
	"spanjoin/internal/workload"
	"spanjoin/server"
)

// probeInputs are the workload's own inputs, which the traced run feeds
// to each layer's public functions directly.
type probeInputs struct {
	docs     []string         // the workload's corpus text
	eqDocs   []string         // one-sentence documents for the equality query; generated when nil
	corpus   *spanjoin.Corpus // the workload's corpus, after the measured phase
	patterns []string         // the workload's warm search patterns
}

// probeDocs bounds the documents each per-document probe visits.
const probeDocs = 300

// probeLayers times the calls into every layer from outside the program,
// each call inside a span, and records the per-layer metrics.
func probeLayers(cfg config, rep *report, tr *tracer, in probeInputs) error {
	docs := in.docs[:min(len(in.docs), probeDocs)]
	if in.eqDocs == nil {
		in.eqDocs = eqDocs(workload.Rand(cfg.seed+3), cfg.sized(40, 8))
	}
	for _, probe := range []func(*report, *tracer, probeInputs, []string) error{
		probePlans, probeJoin, probeGraph, probePrefilter, probeEquality, probeDelivery, probeWAL(cfg), probeServer,
	} {
		if err := probe(rep, tr, in, docs); err != nil {
			return err
		}
	}
	return nil
}

// timed runs f inside a span of a fresh probe operation and returns its
// wall time.
func timed(tr *tracer, name string, f func() error) (time.Duration, error) {
	_, end := tr.start(context.Background(), name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	end()
	return d, err
}

// probePlans compiles and plans each warm pattern in its search form:
// rgx (pattern → automaton), enum (automaton → plan) and the size of
// what they build.
func probePlans(rep *report, tr *tracer, in probeInputs, _ []string) error {
	var compile, plan []float64
	var states, table float64
	for _, p := range in.patterns {
		src := ".*(" + p + ").*"
		var a *vsa.VSA
		for i := 0; i < 5; i++ {
			d, err := timed(tr, "rgx.CompilePattern", func() (err error) {
				a, err = rgx.CompilePattern(src)
				return err
			})
			if err != nil {
				return err
			}
			compile = append(compile, us(d))
			d, err = timed(tr, "enum.NewPlan", func() error {
				_, err := enum.NewPlan(a)
				return err
			})
			if err != nil {
				return err
			}
			plan = append(plan, ms(d))
		}
		t, _, err := a.RequireFunctional()
		if err != nil {
			return err
		}
		states += float64(t.NumStates())
		tt := vsa.NewTransitionTable(t, t.NewClosures())
		for c := 0; c < tt.NumClasses(); c++ {
			if m := tt.ClassMat(c); m != nil {
				table += float64(8 * m.CapWords())
			}
		}
	}
	rep.metrics["rgx.compile_us"] = median(compile)
	rep.metrics["enum.plan_build_ms"] = median(plan)
	rep.metrics["vsa.states"] = states
	rep.metrics["enum.table_bytes"] = table
	return nil
}

// probeJoin times the static half of the automata plan of query (1):
// joining the five atoms and projecting.
func probeJoin(rep *report, tr *tracer, _ probeInputs, _ []string) error {
	var join []float64
	for i := 0; i < 5; i++ {
		q, err := coreCQ(introAtoms, []string{"x"}, nil)
		if err != nil {
			return err
		}
		d, err := timed(tr, "core.CQ.Compile", func() error {
			_, err := q.Compile()
			return err
		})
		if err != nil {
			return err
		}
		join = append(join, ms(d))
	}
	rep.metrics["vsa.join_ms"] = median(join)
	return nil
}

// probeGraph builds each document's layered graph for the dense pattern
// (the paper's preprocessing), drains Next (its delay), and builds and
// queries the ranked DP over the same graph.
func probeGraph(rep *report, tr *tracer, _ probeInputs, docs []string) error {
	a, err := rgx.CompilePattern(".*(" + densePattern + ").*")
	if err != nil {
		return err
	}
	p, err := enum.NewPlan(a)
	if err != nil {
		return err
	}
	e := p.NewEnumerator()
	rng := rand.New(rand.NewSource(1))
	var build, next, rankBuild time.Duration
	var bytes, tuples int
	var descent, sample []float64
	var buf []int32
	for _, d := range docs {
		dt, _ := timed(tr, "enum.Enumerator.Reset", func() error { e.Reset(d); return nil })
		build += dt
		bytes += len(d)
		dt, _ = timed(tr, "enum.Enumerator.Next", func() error {
			for _, ok := e.Next(); ok; _, ok = e.Next() {
				tuples++
			}
			return nil
		})
		next += dt
		e.Reset(d)
		var rk *ranked.Rank
		var total uint64
		dt, _ = timed(tr, "enum.Enumerator.Rank", func() error {
			rk = e.Rank()
			total, _ = rk.Count().Uint64()
			return nil
		})
		rankBuild += dt
		if total == 0 {
			continue
		}
		i := uint64(rng.Int63n(int64(total)))
		dt, _ = timed(tr, "ranked.Rank.WordAt", func() error { buf, _ = rk.WordAt(i, buf); return nil })
		descent = append(descent, us(dt))
		dt, _ = timed(tr, "ranked.Rank.SampleWord", func() error { buf, _ = rk.SampleWord(rng, buf); return nil })
		sample = append(sample, us(dt))
	}
	rep.metrics["enum.graph_build_ns_per_byte"] = ratio(float64(build), float64(bytes))
	rep.metrics["enum.next_ns_per_tuple"] = ratio(float64(next), float64(tuples))
	rep.metrics["ranked.build_ns_per_doc"] = ratio(float64(rankBuild), float64(len(docs)))
	rep.metrics["ranked.descent_us"] = median(descent)
	rep.metrics["ranked.sample_us"] = median(sample)
	return nil
}

// probePrefilter times the literal scan and the skip index for query
// (1)'s requirement, and reads the skip ratio of the query over the
// workload's corpus.
func probePrefilter(rep *report, tr *tracer, in probeInputs, docs []string) error {
	q, err := coreCQ(introAtoms, []string{"x"}, nil)
	if err != nil {
		return err
	}
	req := q.Requirement()
	var scan time.Duration
	var bytes int
	for _, d := range docs {
		dt, _ := timed(tr, "prefilter.Requirement.Match", func() error { req.Match(d); return nil })
		scan += dt
		bytes += len(d)
	}
	ix := prefilter.NewIndex()
	for _, d := range docs {
		ix.Add(d)
	}
	var index []float64
	for i := 0; i < 20; i++ {
		dt, _ := timed(tr, "prefilter.Index.Candidates", func() error { ix.Candidates(req); return nil })
		index = append(index, us(dt))
	}
	intro, err := introQuery("")
	if err != nil {
		return err
	}
	m, err := in.corpus.EvalQuery(context.Background(), intro)
	if err != nil {
		return err
	}
	if _, _, _, err := drain(context.Background(), m, time.Now()); err != nil {
		return err
	}
	st := m.Stats()
	rep.metrics["prefilter.scan_ns_per_byte"] = ratio(float64(scan), float64(bytes))
	rep.metrics["prefilter.index_us"] = median(index)
	rep.metrics["prefilter.skip_ratio"] = ratio(float64(st.Skipped), float64(st.Scanned+st.Skipped))
	return nil
}

// probeEquality times the per-document Thm 5.4 path: one A_eq
// construction, join and enumeration per document.
func probeEquality(rep *report, tr *tracer, in probeInputs, _ []string) error {
	q, err := coreCQ(eqAtoms, nil, [][2]string{{"x", "y"}})
	if err != nil {
		return err
	}
	var per []float64
	for _, d := range in.eqDocs {
		dt, err := timed(tr, "core.CQ.Enumerate", func() error {
			it, err := q.Enumerate(d, core.Options{})
			if err != nil {
				return err
			}
			for _, ok := it.Next(); ok; _, ok = it.Next() {
			}
			return nil
		})
		if err != nil {
			return err
		}
		per = append(per, ms(dt))
	}
	rep.metrics["core.eq_doc_ms"] = median(per)
	return nil
}

// probeDelivery compares a one-shard, one-worker corpus drain with a bare
// Stream over the same documents — the corpus layer's delivery cost —
// and a corpus count with a corpus drain of the same pattern.
func probeDelivery(rep *report, tr *tracer, in probeInputs, docs []string) error {
	ctx := context.Background()
	one := spanjoin.NewCorpus(spanjoin.WithShards(1), spanjoin.WithWorkers(1))
	one.AddAll(docs...)
	sp, err := spanjoin.CompileSearch(densePattern)
	if err != nil {
		return err
	}
	st := sp.NewStream()
	corpusDrain := func(c *spanjoin.Corpus, name string) (time.Duration, int, error) {
		n := 0
		d, err := timed(tr, name, func() error {
			m, err := c.EvalSearch(ctx, densePattern)
			if err != nil {
				return err
			}
			n, _, _, err = drain(ctx, m, time.Now())
			return err
		})
		return d, n, err
	}
	var viaCorpus, viaStream, counts, drains []float64
	var mallocs, tuples uint64
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, n, err := corpusDrain(one, "corpus.drain.1shard")
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		tuples += uint64(n)
		viaCorpus = append(viaCorpus, ms(d))
		d, err = timed(tr, "spanjoin.Stream", func() error {
			for _, doc := range docs {
				ms, err := st.Iterate(doc)
				if err != nil {
					return err
				}
				for _, ok := ms.Next(); ok; _, ok = ms.Next() {
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		viaStream = append(viaStream, ms(d))
	}
	for i := 0; i < 3; i++ {
		d, err := timed(tr, "corpus.CountSearch", func() error {
			_, err := in.corpus.CountSearch(ctx, densePattern)
			return err
		})
		if err != nil {
			return err
		}
		counts = append(counts, ms(d))
		d, _, err = corpusDrain(in.corpus, "corpus.drain")
		if err != nil {
			return err
		}
		drains = append(drains, ms(d))
	}
	rep.metrics["corpus.delivery_ratio"] = ratio(median(viaCorpus), median(viaStream))
	rep.metrics["corpus.allocs_per_tuple"] = ratio(float64(mallocs), float64(tuples))
	rep.metrics["corpus.count_vs_drain"] = ratio(median(counts), median(drains))
	return nil
}

// probeWAL times in-process durable adds with serve's configuration and
// reads the log's bytes per document byte.
func probeWAL(cfg config) func(*report, *tracer, probeInputs, []string) error {
	return func(rep *report, tr *tracer, _ probeInputs, docs []string) error {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("probe-wal-%d", os.Getpid()))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		c, err := spanjoin.Open(dir, spanjoin.WithSync(mustPolicy("always")), spanjoin.WithIndex(), spanjoin.WithMaxConcurrent(runtime.NumCPU()))
		if err != nil {
			return err
		}
		var add []float64
		var user int
		for _, d := range docs[:min(len(docs), 100)] {
			dt, err := timed(tr, "corpus.AddErr", func() error {
				_, err := c.AddErr(d)
				return err
			})
			if err != nil {
				c.Close()
				return err
			}
			add = append(add, us(dt))
			user += len(d)
		}
		st := c.DurabilityStats()
		if err := c.Close(); err != nil {
			return err
		}
		rep.metrics["wal.add_us_p50"] = median(add)
		rep.metrics["wal.bytes_per_user_byte"] = ratio(float64(st.AppendBytes), float64(user))
		return nil
	}
}

// probeServer serves the workload's corpus on a second listener and
// compares each client round trip with the same call made in process.
func probeServer(rep *report, tr *tracer, in probeInputs, _ []string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: server.New(in.corpus, server.Config{}).Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		<-done
	}()
	var received int64
	hc := &http.Client{Transport: countingTransport{http.DefaultTransport.(*http.Transport).Clone(), &received}}
	defer hc.CloseIdleConnections()
	cl, err := client.New("http://"+ln.Addr().String(), client.WithHTTPClient(hc), client.WithRetries(0))
	if err != nil {
		return err
	}
	ctx := context.Background()
	var overhead []float64
	for i := 0; i < 30; i++ {
		remote, err := timed(tr, "client.Count", func() error {
			_, err := cl.Count(ctx, smallPattern, "search", 0)
			return err
		})
		if err != nil {
			return err
		}
		local, err := timed(tr, "corpus.CountSearch", func() error {
			_, err := in.corpus.CountSearch(ctx, smallPattern)
			return err
		})
		if err != nil {
			return err
		}
		overhead = append(overhead, ms(remote-local))
	}
	received = 0
	rows := 0
	for i := 0; i < 5; i++ {
		_, err := timed(tr, "client.Eval", func() error {
			pg, err := cl.Eval(ctx, client.EvalRequest{Pattern: densePattern, Mode: "search", Offset: uint64(i * pageSize), Limit: pageSize})
			if err == nil {
				rows += len(pg.Matches)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	rep.metrics["server.overhead_ms_p50"] = median(overhead)
	rep.metrics["server.bytes_per_row"] = ratio(float64(received), float64(rows))
	return nil
}

// countingTransport counts response body bytes.
type countingTransport struct {
	rt *http.Transport
	n  *int64
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{resp.Body, t.n}
	}
	return resp, err
}

func (t countingTransport) CloseIdleConnections() { t.rt.CloseIdleConnections() }

type countingBody struct {
	io.ReadCloser
	n *int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.n += int64(n)
	return n, err
}
