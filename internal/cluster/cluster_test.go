package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aligncache"
	"repro/internal/alignsvc"
	"repro/internal/dna"
	"repro/internal/swa"
)

// fakeLocal is a deterministic Local: it scores with the exact CPU
// reference and reports the striped tier.
type fakeLocal struct{}

func (f *fakeLocal) Align(ctx context.Context, pairs []dna.Pair) (*alignsvc.BatchResult, error) {
	scores := make([]int, len(pairs))
	for i, p := range pairs {
		scores[i] = swa.Score(p.X, p.Y, swa.PaperScoring)
	}
	return &alignsvc.BatchResult{Scores: scores, Report: alignsvc.Report{Tier: alignsvc.TierStriped}}, nil
}

func testPairs(t *testing.T, n int) []dna.Pair {
	t.Helper()
	rng := rand.New(rand.NewPCG(42, 0))
	return dna.RandomPairs(rng, n, 16, 64)
}

func wantScores(pairs []dna.Pair) []int {
	out := make([]int, len(pairs))
	for i, p := range pairs {
		out[i] = swa.Score(p.X, p.Y, swa.PaperScoring)
	}
	return out
}

// peerServer is a minimal in-test peer speaking the /align and /readyz wire
// protocol. Its /align report says the peer fell back to the reference and
// found every pair in its cache.
type peerServer struct {
	t        *testing.T
	ts       *httptest.Server
	aligns   atomic.Int64
	ready    atomic.Bool
	fail     atomic.Bool  // 500 every /align
	shed     atomic.Int32 // next N /align answers are 429
	shedWait string       // Retry-After value sent with 429s
	lastHops atomic.Value // string: last X-SWA-Forwarded seen
	sleep    time.Duration
}

func newPeerServer(t *testing.T) *peerServer {
	p := &peerServer{t: t}
	p.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/align", func(w http.ResponseWriter, r *http.Request) {
		p.aligns.Add(1)
		p.lastHops.Store(r.Header.Get(ForwardHeader))
		// Reading the body to EOF lets the server notice a client that
		// gives up, so a sleeping handler ends with the forward.
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if p.sleep > 0 {
			select {
			case <-time.After(p.sleep):
			case <-r.Context().Done():
				return
			}
		}
		if p.fail.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		if n := p.shed.Load(); n > 0 && p.shed.CompareAndSwap(n, n-1) {
			if p.shedWait != "" {
				w.Header().Set("Retry-After", p.shedWait)
			}
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		var req wireAlignReq
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		scores := make([]int, len(req.Pairs))
		for i, wp := range req.Pairs {
			x, _ := dna.Parse(wp.X)
			y, _ := dna.Parse(wp.Y)
			scores[i] = swa.Score(x, y, swa.PaperScoring)
		}
		resp := map[string]any{
			"scores": scores,
			"report": map[string]any{"tier": "cpu", "fallbacks": 1, "cache_hits": len(scores)},
		}
		_ = json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !p.ready.Load() {
			http.Error(w, `{"ready":false}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"ready":true}`)
	})
	p.ts = httptest.NewServer(mux)
	t.Cleanup(p.ts.Close)
	return p
}

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// --- ring ---

func TestRingDeterministicAndComplete(t *testing.T) {
	members := []string{"n1", "n2", "n3"}
	a := buildRing(members)
	b := buildRing([]string{"n3", "n1", "n2"}) // order-independent
	if !reflect.DeepEqual(a.hashes, b.hashes) || !reflect.DeepEqual(a.owners, b.owners) {
		t.Fatal("ring must be deterministic and member-order independent")
	}
	if got := a.members(); !reflect.DeepEqual(got, []string{"n1", "n2", "n3"}) {
		t.Fatalf("members: %v", got)
	}
	owned := map[string]int{}
	rng := rand.New(rand.NewPCG(7, 0))
	for i := 0; i < 5000; i++ {
		x, y := dna.RandSeq(rng, 8), dna.RandSeq(rng, 32)
		k := aligncache.KeyOf(x, y, swa.PaperScoring, 32)
		owner := a.owner(pointOf(k))
		if owner == "" {
			t.Fatal("ring returned no owner")
		}
		owned[owner]++
	}
	for _, m := range members {
		if owned[m] == 0 {
			t.Fatalf("member %s owns nothing: %v", m, owned)
		}
		// With 64 vnodes the split should be vaguely even; accept wide slack.
		if owned[m] < 500 {
			t.Fatalf("member %s owns only %d/5000 keys: %v", m, owned[m], owned)
		}
	}
}

func TestRingRehomesMinimally(t *testing.T) {
	full := buildRing([]string{"n1", "n2", "n3"})
	reduced := buildRing([]string{"n1", "n3"})
	rng := rand.New(rand.NewPCG(11, 0))
	moved, kept := 0, 0
	for i := 0; i < 5000; i++ {
		x, y := dna.RandSeq(rng, 8), dna.RandSeq(rng, 32)
		h := pointOf(aligncache.KeyOf(x, y, swa.PaperScoring, 32))
		before, after := full.owner(h), reduced.owner(h)
		if before == "n2" {
			continue // n2's arc must re-home somewhere, by definition
		}
		if before == after {
			kept++
		} else {
			moved++
		}
	}
	// Consistent hashing: keys not owned by the removed node stay put.
	if moved != 0 {
		t.Fatalf("%d keys owned by surviving nodes moved (kept %d)", moved, kept)
	}
	if full.owner(pointOf(aligncache.Key{})) == "" {
		t.Fatal("zero key must have an owner")
	}
	var nilRing *ring
	if nilRing.owner(42) != "" || nilRing.members() != nil {
		t.Fatal("nil ring must own nothing")
	}
}

// --- parsing / construction ---

func TestParsePeers(t *testing.T) {
	got, err := ParsePeers("n2=http://h2:1234, n3=http://h3:1234/")
	if err != nil {
		t.Fatal(err)
	}
	want := []Peer{{ID: "n2", URL: "http://h2:1234"}, {ID: "n3", URL: "http://h3:1234"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v", got)
	}
	for _, bad := range []string{"n2", "=url", "n2=", "n2=u,n2=v"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("ParsePeers(%q) should fail", bad)
		}
	}
	if got, err := ParsePeers(""); err != nil || got != nil {
		t.Fatalf("empty peers: %v %v", got, err)
	}
}

func TestNewValidation(t *testing.T) {
	local := &fakeLocal{}
	if _, err := New(Config{Local: local}); err == nil {
		t.Fatal("missing NodeID should fail")
	}
	if _, err := New(Config{NodeID: "n1"}); err == nil {
		t.Fatal("missing Local should fail")
	}
	if _, err := New(Config{NodeID: "n1", Local: local, Peers: []Peer{{ID: "n1", URL: "http://x"}}}); err == nil {
		t.Fatal("self-referencing peer should fail")
	}
	if _, err := New(Config{NodeID: "n1", Local: local,
		Peers: []Peer{{ID: "n2", URL: "http://x"}, {ID: "n2", URL: "http://y"}}}); err == nil {
		t.Fatal("duplicate peer should fail")
	}
}

// --- single-node identity ---

func TestSingleNodeIdentity(t *testing.T) {
	local := &fakeLocal{}
	c := newTestCluster(t, Config{NodeID: "solo", Local: local,
		Scoring: swa.PaperScoring, Lanes: 32})
	pairs := testPairs(t, 32)
	res, err := c.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := local.Align(context.Background(), pairs)
	if !reflect.DeepEqual(res.Scores, direct.Scores) {
		t.Fatal("single-node cluster must be byte-identical to no cluster")
	}
	if res.Report.Tier != direct.Report.Tier {
		t.Fatalf("report tier differs: %v vs %v", res.Report.Tier, direct.Report.Tier)
	}
	st := c.Stats()
	if st.ForwardedPairs != 0 || st.FallbackPairs != 0 {
		t.Fatalf("single node must not forward: %+v", st)
	}
	if st.LocalPairs != int64(len(pairs)) {
		t.Fatalf("local pairs = %d, want %d", st.LocalPairs, len(pairs))
	}
}

// --- forwarding ---

func TestForwardAndMerge(t *testing.T) {
	peer := newPeerServer(t)
	local := &fakeLocal{}
	c := newTestCluster(t, Config{
		NodeID: "n1", Local: local, Scoring: swa.PaperScoring, Lanes: 32,
		Peers:         []Peer{{ID: "n2", URL: peer.ts.URL}},
		ProbeInterval: time.Hour, // keep the probes quiet
	})
	pairs := testPairs(t, 64)
	res, err := c.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Scores, wantScores(pairs)) {
		t.Fatal("merged scores differ from the reference")
	}
	st := c.Stats()
	if st.ForwardedPairs == 0 {
		t.Fatal("a 2-node ring should forward some pairs")
	}
	if st.LocalPairs == 0 {
		t.Fatal("a 2-node ring should keep some pairs local")
	}
	if st.ForwardedPairs+st.LocalPairs != int64(len(pairs)) {
		t.Fatalf("forwarded %d + local %d != %d", st.ForwardedPairs, st.LocalPairs, len(pairs))
	}
	if st.PeerCacheHits == 0 {
		t.Fatal("peer-reported cache hits should be tallied")
	}
	if hops, _ := peer.lastHops.Load().(string); hops != "n1" {
		t.Fatalf("forward must carry one hop %q, got %q", "n1", hops)
	}
	// The peer's report merges in: its fallback makes the batch's tier the
	// reference's, and its cache hits count.
	if rep := res.Report; rep.Tier != alignsvc.TierCPU || rep.Fallbacks != 1 || int64(rep.CacheHits) != st.ForwardedPairs {
		t.Fatalf("merged report %s, want cpu with the peer's 1 fallback and %d cache hits", rep, st.ForwardedPairs)
	}
}

func TestDeadPeerFallsBackToLocal(t *testing.T) {
	peer := newPeerServer(t)
	url := peer.ts.URL
	peer.ts.Close() // dead from the start
	local := &fakeLocal{}
	tr := &countingTransport{}
	c := newTestCluster(t, Config{
		NodeID: "n1", Local: local, Scoring: swa.PaperScoring, Lanes: 32,
		Peers:         []Peer{{ID: "n2", URL: url}},
		ProbeInterval: time.Hour,
		PeerTimeout:   200 * time.Millisecond,
		Client:        &http.Client{Transport: tr},
	})
	pairs := testPairs(t, 48)
	res, err := c.Align(context.Background(), pairs)
	if err != nil {
		t.Fatalf("a dead peer must never fail the request: %v", err)
	}
	if !reflect.DeepEqual(res.Scores, wantScores(pairs)) {
		t.Fatal("fallback scores differ from the reference")
	}
	if got := tr.aligns.Load(); got != 1 {
		t.Fatalf("the dead peer got %d forward attempts, want exactly 1", got)
	}
	st := c.Stats()
	if st.FallbackPairs == 0 || st.ForwardedPairs != 0 || st.LocalPairs+st.FallbackPairs != int64(len(pairs)) {
		t.Fatalf("want the dead peer's pairs served locally, the rest as usual: %+v", st)
	}
	if p := st.Peers[0]; p.State != Quarantined || p.Quarantines != 1 || p.ForwardErrors != 1 {
		t.Fatalf("one failed forward must quarantine the peer once: %+v", p)
	}
	if !reflect.DeepEqual(st.RingMembers, []string{"n1"}) {
		t.Fatalf("ring members %v, want [n1]", st.RingMembers)
	}
}

// countingTransport counts the /align requests it sends, whether or not
// the peer answers.
type countingTransport struct{ aligns atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/align" {
		c.aligns.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestPeer429FallsBackWithoutWaiting pins the one-attempt forward against a
// shedding peer: the 429 is not retried and its Retry-After is not waited
// out, the group is scored locally at once, and the peer's health is
// untouched (an alive-but-shedding peer is not a failing one).
func TestPeer429FallsBackWithoutWaiting(t *testing.T) {
	peer := newPeerServer(t)
	peer.shedWait = "30"
	peer.shed.Store(1) // the first /align sheds
	local := &fakeLocal{}
	c := newTestCluster(t, Config{
		NodeID: "n1", Local: local, Scoring: swa.PaperScoring, Lanes: 32,
		Peers:         []Peer{{ID: "n2", URL: peer.ts.URL}},
		ProbeInterval: time.Hour,
		PeerTimeout:   5 * time.Second,
	})
	pairs := ownedBy(t, c, "n2", 4)
	begin := time.Now()
	res, err := c.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(begin); elapsed >= 500*time.Millisecond {
		t.Fatalf("a 429 delayed the answer by %v", elapsed)
	}
	if !reflect.DeepEqual(res.Scores, wantScores(pairs)) {
		t.Fatal("scores differ")
	}
	if got := peer.aligns.Load(); got != 1 {
		t.Fatalf("the shedding peer got %d forward attempts, want exactly 1", got)
	}
	st := c.Stats()
	if st.FallbackPairs != int64(len(pairs)) || st.ForwardedPairs != 0 {
		t.Fatalf("want all %d pairs served locally: %+v", len(pairs), st)
	}
	if p := st.Peers[0]; p.State != Healthy || p.Quarantines != 0 {
		t.Fatalf("a 429 moved the peer's health: %+v", p)
	}
}

// ownedBy generates pairs the given node owns under c's current ring.
func ownedBy(t *testing.T, c *Cluster, owner string, n int) []dna.Pair {
	t.Helper()
	rng := rand.New(rand.NewPCG(99, 0))
	r := c.currentRing()
	var out []dna.Pair
	for tries := 0; len(out) < n && tries < 100000; tries++ {
		p := dna.Pair{X: dna.RandSeq(rng, 16), Y: dna.RandSeq(rng, 64)}
		k := aligncache.KeyOf(p.X, p.Y, c.cfg.Scoring, c.cfg.Lanes)
		if r.owner(pointOf(k)) == owner {
			out = append(out, p)
		}
	}
	if len(out) < n {
		t.Fatalf("could not generate %d pairs owned by %s", n, owner)
	}
	return out
}

func TestOwnerNeverForwardsToItself(t *testing.T) {
	peer := newPeerServer(t)
	local := &fakeLocal{}
	c := newTestCluster(t, Config{
		NodeID: "n1", Local: local, Scoring: swa.PaperScoring, Lanes: 32,
		Peers:         []Peer{{ID: "n2", URL: peer.ts.URL}},
		ProbeInterval: time.Hour,
	})
	pairs := ownedBy(t, c, "n1", 16)
	if _, err := c.Align(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	if got := peer.aligns.Load(); got != 0 {
		t.Fatalf("self-owned pairs hit the peer %d time(s)", got)
	}
	st := c.Stats()
	if st.LocalPairs != int64(len(pairs)) || st.ForwardedPairs != 0 {
		t.Fatalf("self-owned batch must be fully local: %+v", st)
	}
}

// --- peer health / re-homing ---

func TestQuarantineAndReadmission(t *testing.T) {
	peer := newPeerServer(t)
	local := &fakeLocal{}
	c := newTestCluster(t, Config{
		NodeID: "n1", Local: local, Scoring: swa.PaperScoring, Lanes: 32,
		Peers:         []Peer{{ID: "n2", URL: peer.ts.URL}},
		ProbeInterval: 50 * time.Millisecond,
		PeerTimeout:   time.Second,
	})
	waitState := func(want State) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if c.Stats().Peers[0].State == want {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("peer never became %v (now %v)", want, c.Stats().Peers[0].State)
	}

	waitState(Healthy)
	membersBefore := len(c.Stats().RingMembers)
	if membersBefore != 2 {
		t.Fatalf("ring should have 2 members, has %d", membersBefore)
	}

	peer.ready.Store(false) // the peer "dies" (readyz 503)
	waitState(Quarantined)
	st := c.Stats()
	if len(st.RingMembers) != 1 || st.RingMembers[0] != "n1" {
		t.Fatalf("quarantined peer still in ring: %v", st.RingMembers)
	}
	if st.Peers[0].Quarantines == 0 {
		t.Fatal("quarantine not counted")
	}
	versionAfterDeath := st.RingVersion

	// All pairs — including n2's arc — now run locally without forwards.
	pairs := testPairs(t, 32)
	res, err := c.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Scores, wantScores(pairs)) {
		t.Fatal("scores wrong while peer dead")
	}

	peer.ready.Store(true) // the peer comes back
	waitState(Healthy)
	st = c.Stats()
	if len(st.RingMembers) != 2 {
		t.Fatalf("readmitted peer missing from ring: %v", st.RingMembers)
	}
	if st.Peers[0].Readmissions == 0 {
		t.Fatal("readmission not counted")
	}
	if st.RingVersion <= versionAfterDeath {
		t.Fatal("readmission must rebuild the ring, re-homing keys back")
	}
}

// TestSlowPeerTimesOutToLocal pins PeerTimeout as the bound on a forward:
// a peer that answers after the timeout costs one attempt and quarantines
// the peer, and the group is scored locally. A caller whose own deadline
// ends first gets its context error and leaves the peer's health alone.
func TestSlowPeerTimesOutToLocal(t *testing.T) {
	peer := newPeerServer(t)
	peer.sleep = 2 * time.Second // peer is alive but glacial
	local := &fakeLocal{}
	c := newTestCluster(t, Config{
		NodeID: "n1", Local: local, Scoring: swa.PaperScoring, Lanes: 32,
		Peers:         []Peer{{ID: "n2", URL: peer.ts.URL}},
		ProbeInterval: time.Hour,
		PeerTimeout:   100 * time.Millisecond,
	})
	pairs := ownedBy(t, c, "n2", 8)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.Align(ctx, pairs); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Align past the caller's deadline: %v, want context.DeadlineExceeded", err)
	}
	if p := c.Stats().Peers[0]; p.State != Healthy {
		t.Fatalf("the caller's deadline counted against the peer: %+v", p)
	}

	begin := time.Now()
	res, err := c.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(begin); elapsed > time.Second {
		t.Fatalf("PeerTimeout did not bound the slow forward (took %v)", elapsed)
	}
	if !reflect.DeepEqual(res.Scores, wantScores(pairs)) {
		t.Fatal("fallback scores differ")
	}
	if got := peer.aligns.Load(); got != 2 {
		t.Fatalf("the slow peer got %d forward attempts for two calls, want exactly 2", got)
	}
	st := c.Stats()
	if st.FallbackPairs != int64(len(pairs)) || st.ForwardedPairs != 0 {
		t.Fatalf("want all %d pairs served locally: %+v", len(pairs), st)
	}
	if p := st.Peers[0]; p.State != Quarantined || p.Quarantines != 1 {
		t.Fatalf("one timed-out forward must quarantine the peer once: %+v", p)
	}
}

// TestDrainingPeerLeavesRingAtOnce pins that a draining peer's first 503
// takes it out of the ring: one forward meets the refusal and is scored
// locally, and every later batch the peer owned is scored locally without
// a round trip. No probe runs during the test.
func TestDrainingPeerLeavesRingAtOnce(t *testing.T) {
	var aligns atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/align" {
			aligns.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"code":"draining"}`)
	}))
	t.Cleanup(peer.Close)
	c := newTestCluster(t, Config{
		NodeID: "n1", Local: &fakeLocal{}, Scoring: swa.PaperScoring, Lanes: 32,
		Peers:         []Peer{{ID: "n2", URL: peer.URL}},
		ProbeInterval: time.Hour,
	})
	for _, p := range ownedBy(t, c, "n2", 10) {
		pairs := []dna.Pair{p}
		res, err := c.Align(context.Background(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Scores, wantScores(pairs)) {
			t.Fatal("scores differ")
		}
	}
	if got := aligns.Load(); got != 1 {
		t.Fatalf("the draining peer got %d forwards, want exactly 1", got)
	}
	st := c.Stats()
	if st.FallbackPairs != 1 {
		t.Fatalf("fallback pairs = %d, want 1: %+v", st.FallbackPairs, st)
	}
	if p := st.Peers[0]; p.State != Quarantined {
		t.Fatalf("the draining peer is %v, want quarantined: %+v", p.State, p)
	}
	if !reflect.DeepEqual(st.RingMembers, []string{"n1"}) {
		t.Fatalf("ring members %v, want [n1]", st.RingMembers)
	}
}

// hungReadyz starts a peer whose /readyz never answers until the test
// ends; it counts the probes it has received.
func hungReadyz(t *testing.T) (url string, probes *atomic.Int64) {
	t.Helper()
	probes = new(atomic.Int64)
	hung := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			probes.Add(1)
		}
		select {
		case <-r.Context().Done():
		case <-hung:
		}
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(hung) })
	return ts.URL, probes
}

// TestHungProbeDelaysNoOtherPeer pins that each peer is probed on its own
// loop: while n2 hangs every /readyz for the whole PeerTimeout, n3 still
// leaves the ring within a few probe intervals of failing /readyz, and
// rejoins as soon after passing it again.
func TestHungProbeDelaysNoOtherPeer(t *testing.T) {
	hungURL, _ := hungReadyz(t)
	n3 := newPeerServer(t)
	c := newTestCluster(t, Config{
		NodeID: "n1", Local: &fakeLocal{}, Scoring: swa.PaperScoring, Lanes: 32,
		Peers:         []Peer{{ID: "n2", URL: hungURL}, {ID: "n3", URL: n3.ts.URL}},
		ProbeInterval: 50 * time.Millisecond,
		PeerTimeout:   time.Second,
	})
	// waitRing polls until n3's ring membership is want and returns how
	// long that took.
	waitRing := func(want bool) time.Duration {
		t.Helper()
		begin := time.Now()
		for time.Since(begin) < 5*time.Second {
			st := c.Stats()
			in := false
			for _, m := range st.RingMembers {
				in = in || m == "n3"
			}
			if in == want && (st.Peers[1].State == Healthy) == want {
				return time.Since(begin)
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("n3 in ring never became %v: %+v", want, c.Stats())
		return 0
	}
	n3.ready.Store(false)
	if d := waitRing(false); d > 500*time.Millisecond {
		t.Fatalf("n3 left the ring %v after failing /readyz, want under 500ms", d)
	}
	n3.ready.Store(true)
	if d := waitRing(true); d > 500*time.Millisecond {
		t.Fatalf("n3 rejoined the ring %v after passing /readyz, want under 500ms", d)
	}
}

// TestCloseAbortsHungProbe pins that Close ends an in-flight probe instead
// of waiting out PeerTimeout, and that the aborted probe marks nothing.
func TestCloseAbortsHungProbe(t *testing.T) {
	hungURL, probes := hungReadyz(t)
	c := newTestCluster(t, Config{
		NodeID: "n1", Local: &fakeLocal{}, Scoring: swa.PaperScoring, Lanes: 32,
		Peers:         []Peer{{ID: "n2", URL: hungURL}},
		ProbeInterval: 10 * time.Millisecond,
		PeerTimeout:   2 * time.Second,
	})
	for deadline := time.Now().Add(5 * time.Second); probes.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no probe reached the peer")
		}
	}
	begin := time.Now()
	c.Close()
	if d := time.Since(begin); d > 100*time.Millisecond {
		t.Fatalf("Close took %v with a probe hung, want under 100ms", d)
	}
	if p := c.Stats().Peers[0]; p.State != Healthy || p.Quarantines != 0 {
		t.Fatalf("the probe Close aborted moved the peer's health: %+v", p)
	}
}

// --- concurrency smoke (for -race) ---

func TestConcurrentAlignWithChurn(t *testing.T) {
	peer := newPeerServer(t)
	local := &fakeLocal{}
	c := newTestCluster(t, Config{
		NodeID: "n1", Local: local, Scoring: swa.PaperScoring, Lanes: 32,
		Peers:         []Peer{{ID: "n2", URL: peer.ts.URL}},
		ProbeInterval: 20 * time.Millisecond,
		PeerTimeout:   500 * time.Millisecond,
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // membership churn: peer flaps
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(40 * time.Millisecond):
				peer.ready.Store(!peer.ready.Load())
				peer.fail.Store(!peer.fail.Load())
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 0))
			for i := 0; i < 20; i++ {
				pairs := dna.RandomPairs(rng, 8, 8, 32)
				res, err := c.Align(context.Background(), pairs)
				if err != nil {
					t.Errorf("align: %v", err)
					return
				}
				if !reflect.DeepEqual(res.Scores, wantScores(pairs)) {
					t.Error("wrong scores under churn")
					return
				}
			}
		}(g)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	_ = c.Stats() // must not race with anything above
}
