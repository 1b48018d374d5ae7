// Package cluster is the coordinator-free peer layer that lets N swaserver
// processes serve as one logical alignment service.
//
// Membership is static (a -peers list); everything dynamic is inferred, no
// coordinator. A consistent-hash ring over the aligncache content address
// routes every pair to its owner node, so repeated screening workloads hit
// the owner's score cache no matter which node the client happened to ask.
// Batches with mixed ownership are split per owner and merged, mirroring the
// cached/uncached split inside alignsvc.
//
// A forward buys cache locality and nothing else: every node computes the
// same exact scores. So a forward is one attempt, bounded by PeerTimeout and
// the caller's deadline, and on any failure the owner group is scored
// locally, once. A peer failure is a performance event, never a correctness
// event.
//
// Peer health is one bit, healthy or quarantined, and it is ring
// membership: a failed /readyz probe or a failed forward quarantines the
// peer at once, re-homing its keys, and its next passing probe readmits it,
// re-homing them back. A 429 (the peer is alive and shedding) and the end
// of the caller's context leave health alone. Each peer is probed on its
// own loop, so a hung probe delays no other peer. A draining node fails its
// /readyz and answers forwards with 503, so its peers quarantine it at the
// first of either and re-home its arcs exactly as for a dead node; the new
// owners recompute its keys, which costs less than shipping its cache.
//
// Forwarded requests carry the X-SWA-Forwarded header and are always served
// locally by the receiver — one hop, never chains — so a stale ring cannot
// create forwarding loops.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aligncache"
	"repro/internal/alignsvc"
	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/swa"
)

// ForwardHeader marks a request as already forwarded once by a peer. The
// receiving server must serve it locally and never re-forward; a request
// whose chain is longer than one hop (or names the receiver itself) is
// rejected with a typed error, so a stale ring cannot loop.
const ForwardHeader = "X-SWA-Forwarded"

const (
	// replicas is the number of virtual ring points per member.
	replicas = 64

	defaultPeerTimeout = 5 * time.Second
	defaultProbeEvery  = time.Second

	// maxPeerRespBytes bounds how much of a peer response we will buffer;
	// a misbehaving peer must not be able to balloon our memory.
	maxPeerRespBytes = 16 << 20
)

// Peer names one static cluster member: a stable node ID and its base URL.
type Peer struct {
	ID  string
	URL string
}

// ParsePeers parses the -peers flag format "id1=http://h1:p1,id2=http://h2:p2".
func ParsePeers(s string) ([]Peer, error) {
	var peers []Peer
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want id=url)", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		seen[id] = true
		peers = append(peers, Peer{ID: id, URL: strings.TrimRight(url, "/")})
	}
	return peers, nil
}

// Local is the node-local execution engine a Cluster routes around —
// *alignsvc.Service satisfies it. Align must be safe for concurrent use.
type Local interface {
	Align(ctx context.Context, pairs []dna.Pair) (*alignsvc.BatchResult, error)
}

// Config configures a Cluster. NodeID, Local and (for multi-node operation)
// Peers are required; everything else defaults sensibly.
type Config struct {
	// NodeID is this node's stable identity in the ring. It must differ
	// from every peer's ID.
	NodeID string
	// Peers are the other static members. The ring is built over
	// NodeID + the IDs of peers currently considered live.
	Peers []Peer
	// Local executes batches on this node.
	Local Local
	// Scoring and Lanes must match the local service's, so the routing key
	// equals the aligncache key and forwards land on warm caches.
	Scoring swa.Scoring
	Lanes   int

	// PeerTimeout bounds one forward and one health probe (default 5s).
	PeerTimeout time.Duration
	// ProbeInterval is the cadence of each peer's /readyz probe (default
	// 1s). A quarantined peer is readmitted by its first passing probe.
	ProbeInterval time.Duration

	// Metrics receives the cluster_* counters and gauges (default
	// obs.Default()).
	Metrics *obs.Registry
	// Client is the HTTP client used for forwards and probes (a seam for
	// tests; defaults to a dedicated client with sane pooling).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = defaultPeerTimeout
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = defaultProbeEvery
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}}
	}
	return c
}

// State is one peer's health: a failed probe or forward quarantines a
// peer, and its next passing probe readmits it.
type State int

const (
	// Healthy peers are ring members and receive forwards.
	Healthy State = iota
	// Quarantined peers are out of the ring — their keys have re-homed —
	// until a probe passes.
	Quarantined
)

var stateNames = [...]string{"healthy", "quarantined"}

func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// MarshalText renders the state name, so snapshots JSON-encode readably.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name.
func (s *State) UnmarshalText(b []byte) error {
	for i, n := range stateNames {
		if n == string(b) {
			*s = State(i)
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown state %q", b)
}

// peer is one remote member plus everything we know about it.
type peer struct {
	id, url string

	// health fields are guarded by the Cluster's mu (membership changes
	// must atomically rebuild the ring).
	state        State
	lastErr      string
	quarantines  int64
	readmissions int64

	forwards      atomic.Int64 // forward calls answered by this peer
	forwardErrs   atomic.Int64 // forward calls that failed (transport/HTTP)
	peerCacheHits atomic.Int64 // cache hits reported in peer responses

	mState *obs.Gauge
	mQuar  *obs.Counter
	mRead  *obs.Counter
	mFwd   *obs.Counter
	mFErr  *obs.Counter
}

// Cluster routes batches across the peer set. It is safe for concurrent use.
// A nil *Cluster is inert: the server treats it as "no cluster".
type Cluster struct {
	cfg  Config
	self string

	mu          sync.Mutex       // peers' health + ring rebuilds
	peers       map[string]*peer // fixed after New, so read without mu
	order       []*peer          // deterministic iteration for stats
	ring        atomic.Pointer[ring]
	ringVersion int64

	stop context.CancelFunc // ends the probe loops and their probes
	wg   sync.WaitGroup

	batches         atomic.Int64
	localPairs      atomic.Int64
	forwardedPairs  atomic.Int64
	fallbackPairs   atomic.Int64
	forwardedServed atomic.Int64
	loopRejects     atomic.Int64

	mRing     *obs.Gauge
	mRingVer  *obs.Gauge
	mFallback *obs.Counter
	mPeerHits *obs.Counter
	mServed   *obs.Counter
	mLoops    *obs.Counter
}

// New builds a Cluster and starts one probe loop per peer. Close stops them.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.NodeID == "" {
		return nil, errors.New("cluster: NodeID is required")
	}
	if cfg.Local == nil {
		return nil, errors.New("cluster: Local is required")
	}
	c := &Cluster{
		cfg:   cfg,
		self:  cfg.NodeID,
		peers: make(map[string]*peer, len(cfg.Peers)),
	}
	for _, p := range cfg.Peers {
		if p.ID == cfg.NodeID {
			return nil, fmt.Errorf("cluster: peer id %q equals our own NodeID", p.ID)
		}
		if p.ID == "" || p.URL == "" {
			return nil, fmt.Errorf("cluster: peer needs both id and url, got %+v", p)
		}
		if _, dup := c.peers[p.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", p.ID)
		}
		pr := &peer{id: p.ID, url: p.URL}
		c.peers[p.ID] = pr
		c.order = append(c.order, pr)
	}
	sort.Slice(c.order, func(i, j int) bool { return c.order[i].id < c.order[j].id })
	c.initMetrics()
	c.mu.Lock()
	c.rebuildRingLocked()
	c.mu.Unlock()
	ctx, stop := context.WithCancel(context.Background())
	c.stop = stop
	for _, p := range c.order {
		c.wg.Add(1)
		go c.probeLoop(ctx, p)
	}
	return c, nil
}

func (c *Cluster) initMetrics() {
	m := c.cfg.Metrics
	m.Help("cluster_ring_members", "Nodes currently in the consistent-hash ring, including self.")
	m.Help("cluster_ring_version", "Monotonic ring rebuild counter; each bump re-homes some key arcs.")
	m.Help("cluster_peer_state", "Peer health state (0 healthy, 1 quarantined).")
	m.Help("cluster_fallbacks_total", "Owner groups served locally after a failed forward.")
	m.Help("cluster_peer_cache_hits_total", "Cache hits reported by peers for forwarded pairs.")
	m.Help("cluster_forwarded_served_total", "Forwarded requests this node answered 200 for a peer.")
	m.Help("cluster_loop_rejects_total", "Forwarded requests rejected by the hop guard.")
	c.mRing = m.Gauge("cluster_ring_members")
	c.mRingVer = m.Gauge("cluster_ring_version")
	c.mFallback = m.Counter("cluster_fallbacks_total")
	c.mPeerHits = m.Counter("cluster_peer_cache_hits_total")
	c.mServed = m.Counter("cluster_forwarded_served_total")
	c.mLoops = m.Counter("cluster_loop_rejects_total")
	for _, p := range c.order {
		p.mState = m.Gauge(obs.L("cluster_peer_state", "peer", p.id))
		p.mQuar = m.Counter(obs.L("cluster_quarantines_total", "peer", p.id))
		p.mRead = m.Counter(obs.L("cluster_readmissions_total", "peer", p.id))
		p.mFwd = m.Counter(obs.L("cluster_forwards_total", "peer", p.id))
		p.mFErr = m.Counter(obs.L("cluster_forward_errors_total", "peer", p.id))
	}
}

// Close stops the probe loops, aborting any probe in flight. In-flight
// Aligns finish normally.
func (c *Cluster) Close() {
	if c == nil {
		return
	}
	c.stop()
	c.wg.Wait()
}

// NodeID returns this node's ring identity.
func (c *Cluster) NodeID() string {
	if c == nil {
		return ""
	}
	return c.self
}

// rebuildRingLocked recomputes ring membership from the current health
// states: self plus every healthy peer. Callers hold c.mu.
func (c *Cluster) rebuildRingLocked() {
	members := append(make([]string, 0, len(c.peers)+1), c.self)
	for _, p := range c.order {
		if p.state == Healthy {
			members = append(members, p.id)
		}
	}
	c.ring.Store(buildRing(members))
	c.ringVersion++
	c.mRing.Set(float64(len(members)))
	c.mRingVer.Set(float64(c.ringVersion))
}

// mark sets a peer's health from one probe or forward outcome: an error
// quarantines a healthy peer and nil readmits a quarantined one. Either
// move rebuilds the ring, re-homing the peer's arcs.
func (c *Cluster) mark(p *peer, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	to := Healthy
	p.lastErr = ""
	if err != nil {
		to = Quarantined
		p.lastErr = err.Error()
	}
	if p.state == to {
		return
	}
	p.state = to
	p.mState.Set(float64(to))
	if to == Quarantined {
		p.quarantines++
		p.mQuar.Inc()
	} else {
		p.readmissions++
		p.mRead.Inc()
	}
	c.rebuildRingLocked()
}

// currentRing returns the live ring snapshot (nil means "all local").
func (c *Cluster) currentRing() *ring { return c.ring.Load() }

// Align routes one batch: pairs owned by this node run locally, pairs owned
// by live peers are forwarded (and fall back to local on any failure), and
// the per-owner results are merged back in request order. With no live peers
// — or a single-node cluster — this is exactly Local.Align.
func (c *Cluster) Align(ctx context.Context, pairs []dna.Pair) (*alignsvc.BatchResult, error) {
	if len(pairs) == 0 {
		return c.cfg.Local.Align(ctx, pairs)
	}
	c.batches.Add(1)
	r := c.currentRing()
	groups := make(map[string][]int, 3)
	var order []string // first-appearance order, deterministic merge
	for i, p := range pairs {
		owner := r.owner(pointOf(aligncache.KeyOf(p.X, p.Y, c.cfg.Scoring, c.cfg.Lanes)))
		if owner == c.self {
			owner = "" // local sentinel: a node that owns a key never forwards it
		}
		if _, seen := groups[owner]; !seen {
			order = append(order, owner)
		}
		groups[owner] = append(groups[owner], i)
	}

	if len(order) == 1 && order[0] == "" {
		// Entire batch is ours: the exact no-cluster code path.
		res, err := c.cfg.Local.Align(ctx, pairs)
		if err == nil {
			c.localPairs.Add(int64(len(pairs)))
		}
		return res, err
	}

	type groupOut struct {
		res *alignsvc.BatchResult
		err error
	}
	outs := make([]groupOut, len(order))
	var wg sync.WaitGroup
	for gi, owner := range order {
		idx := groups[owner]
		sub := make([]dna.Pair, len(idx))
		for j, i := range idx {
			sub[j] = pairs[i]
		}
		wg.Add(1)
		go func(gi int, owner string, sub []dna.Pair) {
			defer wg.Done()
			if owner == "" {
				res, err := c.cfg.Local.Align(ctx, sub)
				if err == nil {
					c.localPairs.Add(int64(len(sub)))
				}
				outs[gi] = groupOut{res, err}
				return
			}
			res, err := c.alignVia(ctx, owner, sub)
			outs[gi] = groupOut{res, err}
		}(gi, owner, sub)
	}
	wg.Wait()

	scores := make([]int, len(pairs))
	var merged alignsvc.Report
	for gi, owner := range order {
		o := outs[gi]
		if o.err != nil {
			return nil, o.err
		}
		for j, i := range groups[owner] {
			scores[i] = o.res.Scores[j]
		}
		if gi == 0 {
			merged.Tier = o.res.Report.Tier
		}
		mergeReport(&merged, o.res.Report)
	}
	return &alignsvc.BatchResult{Scores: scores, Report: merged}, nil
}

// mergeReport folds one owner group's report, local or the peer's, into the
// batch report. A group that fell back makes the batch's tier the
// reference's.
func mergeReport(dst *alignsvc.Report, src alignsvc.Report) {
	dst.Fallbacks += src.Fallbacks
	if dst.Fallbacks > 0 {
		dst.Tier = alignsvc.TierCPU
	}
	dst.Elapsed = max(dst.Elapsed, src.Elapsed)
	dst.CacheHits += src.CacheHits
}

// alignVia forwards one owner group to its peer and scores the group
// locally, once, if the forward fails for any reason but the end of ctx.
func (c *Cluster) alignVia(ctx context.Context, owner string, sub []dna.Pair) (*alignsvc.BatchResult, error) {
	res, err := c.forward(ctx, c.peers[owner], sub)
	if err == nil {
		c.forwardedPairs.Add(int64(len(sub)))
		return res, nil
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	c.fallbackPairs.Add(int64(len(sub)))
	c.mFallback.Inc()
	return c.cfg.Local.Align(ctx, sub)
}

// errShedding marks a forward the peer refused with 429: the peer is alive
// and shedding load, which is not a health failure.
var errShedding = errors.New("shedding (429)")

// forward sends one owner group to its peer in exactly one HTTP attempt and
// returns the peer's scores and report. A success leaves health alone and
// takes no lock; a failure quarantines the peer unless the peer shed the
// request or the caller's context ended, where its health is unknown.
func (c *Cluster) forward(ctx context.Context, p *peer, sub []dna.Pair) (*alignsvc.BatchResult, error) {
	body, err := json.Marshal(c.wireRequest(ctx, sub))
	if err != nil {
		return nil, fmt.Errorf("cluster: encode forward: %w", err)
	}
	res, err := c.post(ctx, p, body, len(sub))
	if err == nil {
		p.forwards.Add(1)
		p.mFwd.Inc()
		return res, nil
	}
	p.forwardErrs.Add(1)
	p.mFErr.Inc()
	if ctx.Err() == nil && !errors.Is(err, errShedding) {
		c.mark(p, err)
	}
	return nil, err
}

// wireRequest builds the forwarded /align body, propagating the remaining
// deadline budget so the peer never works past our own deadline.
func (c *Cluster) wireRequest(ctx context.Context, sub []dna.Pair) wireAlignReq {
	req := wireAlignReq{Pairs: make([]wirePair, len(sub))}
	for i, p := range sub {
		req.Pairs[i] = wirePair{X: p.X.String(), Y: p.Y.String()}
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.TimeoutMS = ms
	}
	return req
}

// post performs one forward attempt, bounded by PeerTimeout. A 429 comes
// back as errShedding.
func (c *Cluster) post(ctx context.Context, p *peer, body []byte, wantScores int) (*alignsvc.BatchResult, error) {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodPost, p.url+"/align", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s: %w", p.id, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, c.self)
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s: %w", p.id, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerRespBytes))
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s: read response: %w", p.id, err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return nil, fmt.Errorf("cluster: peer %s: %w", p.id, errShedding)
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(raw))
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return nil, fmt.Errorf("cluster: peer %s: HTTP %d: %s", p.id, resp.StatusCode, msg)
	}
	var out wireAlignResp
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("cluster: peer %s: decode response: %w", p.id, err)
	}
	if len(out.Scores) != wantScores {
		return nil, fmt.Errorf("cluster: peer %s returned %d scores for %d pairs", p.id, len(out.Scores), wantScores)
	}
	if out.Report.CacheHits > 0 {
		p.peerCacheHits.Add(int64(out.Report.CacheHits))
		c.mPeerHits.Add(int64(out.Report.CacheHits))
	}
	return &alignsvc.BatchResult{Scores: out.Scores, Report: out.Report}, nil
}

// wirePair, wireAlignReq and wireAlignResp mirror the server's /align
// PairJSON, AlignRequest and AlignResponse, because internal/server imports
// this package, not the other way round.
type wirePair struct {
	X string `json:"x"`
	Y string `json:"y"`
}

type wireAlignReq struct {
	Pairs     []wirePair `json:"pairs"`
	TimeoutMS int64      `json:"timeout_ms,omitempty"`
}

type wireAlignResp struct {
	Scores []int           `json:"scores"`
	Report alignsvc.Report `json:"report"`
}

// probeLoop probes one peer's /readyz every ProbeInterval until ctx ends
// (Close), so silent deaths and draining peers are noticed even without
// traffic and a quarantined peer is readmitted by its next passing probe.
// A probe that Close aborted marks nothing.
func (c *Cluster) probeLoop(ctx context.Context, p *peer) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		err := c.probe(ctx, p)
		if ctx.Err() != nil {
			return
		}
		c.mark(p, err)
	}
}

// probe checks a peer's /readyz. A draining or dead peer fails here and
// leaves the ring, so its keys re-home even when no traffic touches it.
func (c *Cluster) probe(ctx context.Context, p *peer) error {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: probe %s: %w", p.id, err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: probe %s: /readyz %d", p.id, resp.StatusCode)
	}
	return nil
}

// NoteForwardedServed counts a forwarded request this node answered 200 for
// a peer. Nil-safe.
func (c *Cluster) NoteForwardedServed() {
	if c == nil {
		return
	}
	c.forwardedServed.Add(1)
	c.mServed.Inc()
}

// NoteLoopReject counts a forwarded request rejected by the hop guard.
// Nil-safe.
func (c *Cluster) NoteLoopReject() {
	if c == nil {
		return
	}
	c.loopRejects.Add(1)
	c.mLoops.Inc()
}
