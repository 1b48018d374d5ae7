package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/aligncache"
	"repro/internal/alignsvc"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// The settings below are the swaserver flag defaults whose zero value in
// the package configs differs; every other field is left at its zero value
// so the stack follows the constructors' own defaults.
const (
	cacheBytes  = 64 << 20
	cacheShards = 16
	cacheTTL    = 10 * time.Minute
	backend     = alignsvc.BackendStriped
	corpusName  = "ref"
)

// node is one swaserver stack serving server.Handler() on a loopback
// listener in this process.
type node struct {
	id    string
	url   string
	reg   *obs.Registry
	ring  *obs.TraceRing
	cache *aligncache.Cache
	svc   *alignsvc.Service
	cl    *cluster.Cluster
	srv   *server.Server
	hs    *http.Server
	done  chan struct{}
}

// stack is every node of one workload plus the mounted corpus, if any.
type stack struct {
	nodes  []*node
	corpus *corpus.Corpus
	// buildS and openS time corpus.Build and corpus.Open.
	buildS, openS float64
}

// buildStack constructs the workload's stack through the public
// constructors swaserver uses, starts serving it, and returns it. dir holds
// the corpus index of /search workloads. With tr set, every handler and the
// search backend are wrapped in tr's timers, and each trace ring holds
// ringSize traces.
func buildStack(sp spec, in *inputs, dir string, tr *tracer, ringSize int) (st *stack, err error) {
	n := 1
	if sp.cluster {
		n = 2
	}
	st = &stack{}
	var lns []net.Listener
	served := 0 // lns[:served] belong to a running http.Server
	defer func() {
		if err != nil {
			for _, ln := range lns[served:] {
				ln.Close()
			}
			st.close()
		}
	}()
	for range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns = append(lns, ln)
	}
	regs := make([]*obs.Registry, n)
	for i := range regs {
		regs[i] = obs.NewRegistry()
	}

	var corpora *corpus.Registry
	if sp.route == "/search" {
		begin := time.Now()
		if _, err := corpus.Build(dir, in.records, corpus.IndexOptions{}); err != nil {
			return nil, fmt.Errorf("corpus build: %w", err)
		}
		opened := time.Now()
		c, err := corpus.Open(dir)
		if err != nil {
			return nil, fmt.Errorf("corpus open: %w", err)
		}
		st.buildS = opened.Sub(begin).Seconds()
		st.openS = time.Since(opened).Seconds()
		st.corpus = c
		be, err := alignsvc.NewBackend(backend, pipeline.Config{}, 0)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			be = &timedBackend{Backend: be, tr: tr}
		}
		corpora = corpus.NewRegistry()
		if err := corpora.Add(corpusName, c, corpus.NewSearcher(c, be, regs[0])); err != nil {
			return nil, err
		}
	}

	ids := []string{"a", "b"}
	for i, ln := range lns {
		nd := &node{
			id:   ids[i],
			url:  "http://" + ln.Addr().String(),
			reg:  regs[i],
			ring: obs.NewTraceRing(ringSize),
			done: make(chan struct{}),
		}
		st.nodes = append(st.nodes, nd)
		nd.cache = aligncache.New(aligncache.Config{
			MaxBytes: cacheBytes, TTL: cacheTTL, Shards: cacheShards, Metrics: nd.reg,
		})
		nd.svc = alignsvc.New(alignsvc.Config{Backend: backend, Cache: nd.cache, Metrics: nd.reg})
		if sp.cluster {
			nd.cl, err = cluster.New(cluster.Config{
				NodeID:  nd.id,
				Peers:   []cluster.Peer{{ID: ids[1-i], URL: "http://" + lns[1-i].Addr().String()}},
				Local:   nd.svc,
				Scoring: nd.svc.Scoring(),
				Lanes:   nd.svc.Lanes(),
				Metrics: nd.reg,
			})
			if err != nil {
				return nil, err
			}
		}
		nd.srv, err = server.New(server.Config{
			Service:   nd.svc,
			Metrics:   nd.reg,
			TraceRing: nd.ring,
			Cluster:   nd.cl,
			Corpora:   corpora,
		})
		if err != nil {
			return nil, err
		}
		h := nd.srv.Handler()
		if tr != nil {
			h = tr.handler(nd.id, h)
		}
		// The connection limits are swaserver's flag defaults.
		nd.hs = &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go func(nd *node, ln net.Listener) {
			defer close(nd.done)
			if err := nd.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "servebench: node %s: serve: %v\n", nd.id, err)
			}
		}(nd, ln)
		served++
	}
	return st, nil
}

// close stops every node and waits for its server goroutine, then stops
// the cluster probers and service workers.
func (st *stack) close() {
	for _, nd := range st.nodes {
		if nd.hs != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := nd.hs.Shutdown(ctx); err != nil {
				nd.hs.Close()
			}
			cancel()
			<-nd.done
		}
	}
	for _, nd := range st.nodes {
		nd.cl.Close()
		if nd.svc != nil {
			nd.svc.Close()
		}
	}
}
