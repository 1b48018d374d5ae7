package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aligncache"
	"repro/internal/alignsvc"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/tenant"
)

// clusterNode is one in-process cluster member: a full service + cluster +
// server stack behind an httptest listener whose handler can be "killed"
// (connections torn down mid-byte, like a SIGKILLed process) and revived.
type clusterNode struct {
	id   string
	svc  *alignsvc.Service
	cl   *cluster.Cluster
	srv  *Server
	ts   *httptest.Server
	dead atomic.Bool
	h    atomic.Pointer[http.Handler]
}

// ServeHTTP delegates to the node's real handler, or slams the connection
// shut when the node is "dead". Closing the hijacked connection is the
// closest in-process stand-in for a SIGKILL: in-flight requests see a reset,
// new connections die immediately, and nothing is gracefully refused.
func (n *clusterNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if n.dead.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if c, _, err := hj.Hijack(); err == nil {
				c.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	if h := n.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "starting", http.StatusServiceUnavailable)
}

func (n *clusterNode) kill()   { n.dead.Store(true) }
func (n *clusterNode) revive() { n.dead.Store(false) }

// newClusterNodes stands up count nodes that know each other by static
// membership. Listeners are created first so every node can be configured
// with the others' URLs before any handler is live. tune, when set, adjusts
// node i's service, cluster and server configs before they are built.
func newClusterNodes(t *testing.T, count int, tune func(i int, acfg *alignsvc.Config, ccfg *cluster.Config, scfg *Config)) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, count)
	for i := range nodes {
		nodes[i] = &clusterNode{id: fmt.Sprintf("n%d", i)}
		nodes[i].ts = httptest.NewServer(nodes[i])
	}
	for i, n := range nodes {
		var peers []cluster.Peer
		for j, p := range nodes {
			if j != i {
				peers = append(peers, cluster.Peer{ID: p.id, URL: p.ts.URL})
			}
		}
		reg := obs.NewRegistry()
		// Capacity matters: every client batch can fan out into forwarded
		// sub-requests at the peers, so queues must absorb both direct and
		// forwarded traffic or the nodes shed each other into a 429 storm.
		// Each node has a score cache — key-affinity routing exists to keep
		// these warm.
		acfg := alignsvc.Config{
			Workers: 4,
			Cache:   aligncache.New(aligncache.Config{MaxBytes: 16 << 20, Metrics: reg}),
			Metrics: reg,
		}
		ccfg := cluster.Config{
			NodeID:        n.id,
			Peers:         peers,
			PeerTimeout:   750 * time.Millisecond,
			ProbeInterval: 50 * time.Millisecond,
			Metrics:       reg,
		}
		scfg := Config{
			MaxInFlight: 16,
			MaxQueued:   32,
			MaxPairs:    64,
			MaxSeqLen:   256,
			Metrics:     reg,
		}
		if tune != nil {
			tune(i, &acfg, &ccfg, &scfg)
		}
		n.svc = alignsvc.New(acfg)
		ccfg.Local, ccfg.Scoring, ccfg.Lanes = n.svc, n.svc.Scoring(), n.svc.Lanes()
		scfg.Service = n.svc
		cl, err := cluster.New(ccfg)
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", n.id, err)
		}
		n.cl = cl
		scfg.Cluster = cl
		srv, err := New(scfg)
		if err != nil {
			t.Fatalf("server.New(%s): %v", n.id, err)
		}
		n.srv = srv
		h := srv.Handler()
		n.h.Store(&h)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.revive()
			n.ts.Close()
			n.cl.Close()
			n.svc.Close()
		}
	})
	return nodes
}

// clusterStatsOf fetches the /statsz cluster section of one node.
func clusterStatsOf(base string) (*cluster.Stats, error) {
	var st StatszResponse
	if err := getServerJSON(base+"/statsz", &st); err != nil {
		return nil, err
	}
	if st.Cluster == nil {
		return nil, fmt.Errorf("statsz has no cluster section")
	}
	return st.Cluster, nil
}

func findPeer(st *cluster.Stats, id string) *cluster.PeerSnapshot {
	if st == nil {
		return nil
	}
	for i := range st.Peers {
		if st.Peers[i].ID == id {
			return &st.Peers[i]
		}
	}
	return nil
}

// waitForPeerState polls base's /statsz until its view of the named peer
// reaches the wanted health state.
func waitForPeerState(base, id string, want cluster.State) error {
	deadline := time.Now().Add(15 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		if st, err := clusterStatsOf(base); err == nil {
			if p := findPeer(st, id); p != nil {
				if p.State == want {
					return nil
				}
				last = p.State.String()
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("peer %s stuck in state %q, want %v", id, last, want)
}

// TestClusterChaosSoak is the multi-node acceptance scenario: three nodes
// serve one logical service; one is killed mid-traffic (connections reset,
// no graceful refusal) and every response must still be exact scores or a
// typed error; aggregate throughput on the survivors must hold ≥60% of the
// three-node baseline; the killed node must be quarantined out of the ring,
// then readmitted after revival; and a second node must drain cleanly and
// be quarantined by its peers. Runs in CI under -race.
func TestClusterChaosSoak(t *testing.T) {
	nodes := newClusterNodes(t, 3, nil)
	n0, n1, n2 := nodes[0], nodes[1], nodes[2]

	// Continuous traffic against n0 and n1 (n2 sees only forwards, so the
	// kill exercises the peer path, not the client path). okCount moves only
	// on verified-exact 200s, so the throughput windows measure correct work.
	var okCount, erroredCount atomic.Int64
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			target := nodes[c%2].ts.URL
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				default:
				}
				pairs, want := testPairs(4, 8, 24, uint64(c)*1_000_000+uint64(i))
				status, raw, err := tryPostAlign(target, AlignRequest{Pairs: pairsJSON(pairs)})
				if err != nil {
					t.Errorf("client %d iter %d: transport: %v", c, i, err)
					return
				}
				switch status {
				case http.StatusOK:
					var res AlignResponse
					if err := json.Unmarshal(raw, &res); err != nil {
						t.Errorf("client %d iter %d: bad 200 body: %v", c, i, err)
						return
					}
					for k := range want {
						if res.Scores[k] != want[k] {
							t.Errorf("client %d iter %d: WRONG SCORE [%d] = %d, want %d",
								c, i, k, res.Scores[k], want[k])
							return
						}
					}
					okCount.Add(1)
				case http.StatusTooManyRequests, http.StatusGatewayTimeout,
					http.StatusServiceUnavailable, http.StatusInternalServerError:
					var e ErrorResponse
					if err := json.Unmarshal(raw, &e); err != nil || e.Code == "" {
						t.Errorf("client %d iter %d: untyped %d: %s", c, i, status, raw)
						return
					}
					erroredCount.Add(1)
				default:
					t.Errorf("client %d iter %d: unexpected status %d: %s", c, i, status, raw)
					return
				}
			}
		}(c)
	}
	fail := func(format string, args ...any) {
		close(stopCh)
		wg.Wait()
		t.Fatalf(format, args...)
	}

	window := 1200 * time.Millisecond
	if testing.Short() {
		window = 500 * time.Millisecond
	}
	measure := func() int64 {
		before := okCount.Load()
		time.Sleep(window)
		return okCount.Load() - before
	}

	// Phase A: three-node baseline (after a short warmup).
	time.Sleep(200 * time.Millisecond)
	baseline := measure()
	if baseline == 0 {
		fail("no successful batches during the baseline window")
	}
	// Routing must actually be engaged before the kill: some pairs forwarded
	// by the entry nodes, some forwarded requests served.
	st0, err := clusterStatsOf(n0.ts.URL)
	if err != nil {
		fail("statsz n0: %v", err)
	}
	st1, err := clusterStatsOf(n1.ts.URL)
	if err != nil {
		fail("statsz n1: %v", err)
	}
	if st0.ForwardedPairs+st1.ForwardedPairs == 0 {
		fail("no pairs were forwarded during the baseline window")
	}
	if st0.ForwardedServed+st1.ForwardedServed == 0 {
		fail("no forwarded requests were served peer-to-peer")
	}
	preKillVersion := st0.RingVersion

	// Kill n2 mid-traffic. In-flight forwards see connection resets and must
	// degrade to local execution; the client loop keeps checking every 200
	// for exact scores throughout.
	n2.kill()
	if err := waitForPeerState(n0.ts.URL, "n2", cluster.Quarantined); err != nil {
		fail("n0 never quarantined n2 after kill: %v", err)
	}
	quarantined := float64(cluster.Quarantined)
	if err := checkMetric(n0.ts.URL, `cluster_peer_state{peer="n2"}`, quarantined, quarantined); err != nil {
		fail("%v", err)
	}
	st0, err = clusterStatsOf(n0.ts.URL)
	if err != nil {
		fail("statsz n0: %v", err)
	}
	if len(st0.RingMembers) != 2 || st0.RingVersion <= preKillVersion {
		fail("n2's arc did not re-home: members=%v ring version=%d (was %d)",
			st0.RingMembers, st0.RingVersion, preKillVersion)
	}

	// Phase B: degraded throughput with n2 quarantined must hold ≥60% of the
	// baseline (its keys re-homed onto the survivors).
	degraded := measure()
	if degraded*100 < baseline*60 {
		fail("degraded throughput %d < 60%% of baseline %d", degraded, baseline)
	}

	// Revive: the probers must readmit n2 and re-home its arc back.
	n2.revive()
	if err := waitForPeerState(n0.ts.URL, "n2", cluster.Healthy); err != nil {
		fail("n0 never readmitted n2 after revive: %v", err)
	}
	if err := checkMetric(n0.ts.URL, `cluster_readmissions_total{peer="n2"}`, 1, math.Inf(1)); err != nil {
		fail("%v", err)
	}
	st0, err = clusterStatsOf(n0.ts.URL)
	if err != nil {
		fail("statsz n0: %v", err)
	}
	if len(st0.RingMembers) != 3 {
		fail("readmitted ring should have 3 members: %v", st0.RingMembers)
	}
	p2 := findPeer(st0, "n2")
	if p2 == nil || p2.Quarantines == 0 || p2.Readmissions == 0 {
		fail("n2 kill/revive cycle not reflected in n0's /statsz: %+v", p2)
	}

	close(stopCh)
	wg.Wait()
	if t.Failed() {
		return
	}
	t.Logf("soak: baseline=%d degraded=%d ok=%d errored=%d n0=%+v",
		baseline, degraded, okCount.Load(), erroredCount.Load(), st0)

	// Clean drain of a second node: n1 flips unready, and its peers' probes
	// quarantine it and re-home its arcs, as for a dead node.
	n1.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n1.srv.Drain(ctx); err != nil {
		t.Fatalf("drain n1: %v", err)
	}
	resp, err := http.Get(n1.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining n1 /readyz = %d, want 503", resp.StatusCode)
	}
	if err := waitForPeerState(n0.ts.URL, "n1", cluster.Quarantined); err != nil {
		t.Fatalf("n0 never quarantined the drained n1: %v", err)
	}
}

// TestClusterRefusedForwardServesLocally pins the one-attempt forward end
// to end. Forwards carry no credentials, so the owner admits them as its
// anonymous tenant. Here that tenant is rate-limited: after the first
// forward the owner refuses each one with 429 and a 30 s Retry-After. A
// keyed, unlimited client must still get exact scores at once, because the
// entry node scores the peer's pairs locally instead of waiting, and the
// refusals must not count against the peer's health.
func TestClusterRefusedForwardServesLocally(t *testing.T) {
	nodes := newClusterNodes(t, 2, func(i int, _ *alignsvc.Config, ccfg *cluster.Config, scfg *Config) {
		ccfg.PeerTimeout = 5 * time.Second // swaserver's -peer-timeout default
		reg, err := tenant.NewRegistry(tenant.Config{
			Anonymous: &tenant.Limits{RPS: 0.01, Burst: 1},
			Tenants:   []tenant.TenantConfig{{ID: "lab", Key: "sk-lab"}},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		scfg.Tenants = reg
	})
	entry := nodes[0].ts.URL
	var last cluster.Stats
	for i := 0; i < 4; i++ {
		pairs, want := testPairs(16, 8, 24, 500+uint64(i))
		begin := time.Now()
		status, raw, _ := postAlignAs(t, entry, "sk-lab", "", AlignRequest{Pairs: pairsJSON(pairs)})
		elapsed := time.Since(begin)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, raw)
		}
		var res AlignResponse
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Scores, want) {
			t.Fatalf("request %d: scores %v, want %v", i, res.Scores, want)
		}
		if elapsed >= 500*time.Millisecond {
			t.Fatalf("request %d took %v", i, elapsed)
		}
		st, err := clusterStatsOf(entry)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && st.FallbackPairs == last.FallbackPairs {
			t.Fatalf("request %d: no refused forward was scored locally: %+v", i, st)
		}
		last = *st
	}
	if last.ForwardedPairs == 0 {
		t.Fatalf("the first request forwarded nothing: %+v", last)
	}
	p := findPeer(&last, "n1")
	if p == nil || p.State != cluster.Healthy {
		t.Fatalf("429s moved the peer's health: %+v", p)
	}
	// The owner counts only the forwards it answered, not the ones it
	// refused.
	owner, err := clusterStatsOf(nodes[1].ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if owner.ForwardedServed != p.Forwards {
		t.Fatalf("owner forwarded_served = %d, want the entry's %d answered forwards",
			owner.ForwardedServed, p.Forwards)
	}
}

// TestDrainDoesNotContactPeers pins that a draining node leaves the cluster
// by failing /readyz alone. Its only peer passes /readyz but never answers
// anything else, so any drain-time request to it would hold BeginDrain for
// the whole PeerTimeout.
func TestDrainDoesNotContactPeers(t *testing.T) {
	var contacted atomic.Int64 // requests other than /readyz
	hung := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			fmt.Fprintln(w, `{"ready":true}`)
			return
		}
		contacted.Add(1)
		select {
		case <-r.Context().Done():
		case <-hung:
		}
	}))
	t.Cleanup(peer.Close)
	t.Cleanup(func() { close(hung) })

	reg := obs.NewRegistry()
	svc := alignsvc.New(alignsvc.Config{
		Cache:   aligncache.New(aligncache.Config{MaxBytes: 1 << 20, Metrics: reg}),
		Metrics: reg,
	})
	cl, err := cluster.New(cluster.Config{
		NodeID:        "n0",
		Peers:         []cluster.Peer{{ID: "n1", URL: peer.URL}},
		Local:         svc,
		Scoring:       svc.Scoring(),
		Lanes:         svc.Lanes(),
		PeerTimeout:   2 * time.Second,
		ProbeInterval: 50 * time.Millisecond,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Service: svc, Cluster: cl, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		cl.Close()
		svc.Close()
	})

	// One batch: the node scores its own pairs, and the peer's pairs after
	// the hung forward times out.
	pairs, want := testPairs(16, 8, 24, 31)
	status, raw := postAlign(t, ts.URL, AlignRequest{Pairs: pairsJSON(pairs)})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var res AlignResponse
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Scores, want) {
		t.Fatalf("scores %v, want %v", res.Scores, want)
	}

	before := contacted.Load()
	begin := time.Now()
	srv.BeginDrain()
	if elapsed := time.Since(begin); elapsed >= 500*time.Millisecond {
		t.Fatalf("BeginDrain took %v", elapsed)
	}
	if got := contacted.Load() - before; got != 0 {
		t.Fatalf("BeginDrain sent the peer %d request(s)", got)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", resp.StatusCode)
	}
	// No node takes a drain handoff either.
	resp, err = http.Post(ts.URL+"/cluster/warm", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /cluster/warm = %d, want 404", resp.StatusCode)
	}
}

// TestClusterForwardedReportIsThePeers pins the report of a batch whose
// pairs were all forwarded: it is the owner's report, so it names the
// striped engine that scored the batch and its elapsed time, and on a
// repeat it counts the owner's cache hits.
func TestClusterForwardedReportIsThePeers(t *testing.T) {
	nodes := newClusterNodes(t, 2, func(_ int, acfg *alignsvc.Config, _ *cluster.Config, _ *Config) {
		acfg.Backend = alignsvc.BackendStriped
	})
	for i, n := range nodes {
		if err := waitForPeerState(n.ts.URL, nodes[1-i].id, cluster.Healthy); err != nil {
			t.Fatal(err)
		}
	}
	entry := nodes[0].ts.URL
	// A one-pair batch is either all local or all forwarded.
	for seed := uint64(0); seed < 64; seed++ {
		before, err := clusterStatsOf(entry)
		if err != nil {
			t.Fatal(err)
		}
		pairs, want := testPairs(1, 8, 24, 900+seed)
		req := AlignRequest{Pairs: pairsJSON(pairs)}
		status, raw := postAlign(t, entry, req)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		after, err := clusterStatsOf(entry)
		if err != nil {
			t.Fatal(err)
		}
		if after.ForwardedPairs == before.ForwardedPairs {
			continue // owned by the entry node; try another pair
		}
		var res AlignResponse
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Scores, want) {
			t.Fatalf("scores %v, want %v", res.Scores, want)
		}
		if res.Report.Tier != alignsvc.TierStriped || res.Report.Elapsed <= 0 {
			t.Fatalf("forwarded batch report %s, elapsed %v: want striped with the owner's elapsed time",
				res.Report, res.Report.Elapsed)
		}
		_, raw = postAlign(t, entry, req)
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if res.Report.Tier != alignsvc.TierStriped || res.Report.CacheHits != 1 {
			t.Fatalf("repeated forwarded batch report %s: want striped with the owner's 1 cache hit", res.Report)
		}
		return
	}
	t.Fatal("no one-pair batch was forwarded")
}

// TestForwardLoopGuard is the stale-ring containment contract: a forwarded
// request is always served locally (one hop max), and any chain longer than
// one hop — or one that already contains this node — is rejected with a
// typed error instead of bouncing around the ring.
func TestForwardLoopGuard(t *testing.T) {
	reg := obs.NewRegistry()
	svc := alignsvc.New(alignsvc.Config{Metrics: reg})
	cl, err := cluster.New(cluster.Config{
		NodeID:  "n1",
		Local:   svc,
		Scoring: svc.Scoring(),
		Lanes:   svc.Lanes(),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Service: svc, Cluster: cl, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		cl.Close()
		svc.Close()
	})

	pairs, want := testPairs(4, 8, 24, 77)
	post := func(hops string) (int, []byte) {
		t.Helper()
		var body []byte
		body, err := json.Marshal(AlignRequest{Pairs: pairsJSON(pairs)})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/align", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if hops != "" {
			req.Header.Set(cluster.ForwardHeader, hops)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf
	}

	// One hop from a peer: served locally with exact scores.
	status, raw := post("n9")
	if status != http.StatusOK {
		t.Fatalf("single-hop forward = %d: %s", status, raw)
	}
	var res AlignResponse
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Scores, want) {
		t.Fatalf("forwarded scores %v, want %v", res.Scores, want)
	}

	// Two hops: a stale ring somewhere produced a chain; refuse to extend it.
	status, raw = post("n9, n8")
	if status != http.StatusBadRequest {
		t.Fatalf("two-hop forward = %d, want 400: %s", status, raw)
	}
	if e := decodeError(t, raw); e.Code != CodeForwardLoop {
		t.Fatalf("two-hop code %q, want %q", e.Code, CodeForwardLoop)
	}

	// Our own ID in the chain: a true loop; same rejection.
	status, raw = post("n1")
	if status != http.StatusBadRequest {
		t.Fatalf("self-loop forward = %d, want 400: %s", status, raw)
	}
	if e := decodeError(t, raw); e.Code != CodeForwardLoop {
		t.Fatalf("self-loop code %q, want %q", e.Code, CodeForwardLoop)
	}

	st, err := clusterStatsOf(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.ForwardedServed != 1 || st.LoopRejects != 2 {
		t.Fatalf("forwarded_served=%d loop_rejects=%d, want 1 and 2", st.ForwardedServed, st.LoopRejects)
	}
	if err := checkMetric(ts.URL, "cluster_loop_rejects_total", 2, 2); err != nil {
		t.Fatal(err)
	}
}

// TestClusterSingleNodeIdentity pins the degenerate deployment: a one-node
// "cluster" must answer byte-for-byte like a server with no cluster at all.
func TestClusterSingleNodeIdentity(t *testing.T) {
	_, plain := newTestServer(t, alignsvc.Config{}, Config{})

	svc := alignsvc.New(alignsvc.Config{})
	cl, err := cluster.New(cluster.Config{
		NodeID:  "solo",
		Local:   svc,
		Scoring: svc.Scoring(),
		Lanes:   svc.Lanes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Service: svc, Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		cl.Close()
		svc.Close()
	})

	pairs, _ := testPairs(16, 8, 32, 55)
	req := AlignRequest{Pairs: pairsJSON(pairs)}
	stPlain, rawPlain := postAlign(t, plain.URL, req)
	stClus, rawClus := postAlign(t, ts.URL, req)
	if stPlain != http.StatusOK || stClus != http.StatusOK {
		t.Fatalf("statuses %d / %d", stPlain, stClus)
	}
	var a, b AlignResponse
	if err := json.Unmarshal(rawPlain, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawClus, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Scores, b.Scores) || a.Report.Tier != b.Report.Tier {
		t.Fatalf("single-node cluster diverged: %v/%v vs %v/%v",
			a.Scores, a.Report.Tier, b.Scores, b.Report.Tier)
	}
	st, err := clusterStatsOf(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.ForwardedPairs != 0 || st.FallbackPairs != 0 {
		t.Fatalf("single node forwarded work: %+v", st)
	}
	if got := st.RingMembers; !reflect.DeepEqual(got, []string{"solo"}) {
		t.Fatalf("ring members %v, want [solo]", got)
	}
}

// checkMetric polls until /metricsz renders series with a value in
// [lo, hi] (a peer's state may flip again, by a probe or a forward,
// between the caller's /statsz read and the scrape). It parses the
// sample's value: a counter is rendered from its registration on, so its
// name alone would also match its 0 line.
func checkMetric(base, series string, lo, hi float64) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/metricsz")
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		v, found := metricSample(string(raw), series)
		if found && v >= lo && v <= hi {
			return nil
		}
		if time.Now().After(deadline) {
			if !found {
				return fmt.Errorf("/metricsz has no %s sample", series)
			}
			return fmt.Errorf("/metricsz %s = %v, want [%v, %v]", series, v, lo, hi)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// metricSample returns the value of series in a Prometheus text body.
func metricSample(body, series string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

func getServerJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
