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
// Forwarding is strictly best-effort: every node can serve every request
// locally, so a peer failure is a performance event, never a correctness
// event. The forward path carries per-peer circuit breakers, deadline
// propagation, Retry-After-honouring 429 handling (an alive-but-shedding
// peer is not a failing peer), bounded retry with jitter, and an optional
// hedge that races local execution against a slow forward. Every failure
// mode degrades to local execution.
//
// Peer health is probed (healthy → suspect → quarantined → probing) and
// feeds ring membership: keys re-home when a node dies and re-home back
// when it is readmitted. A draining node removes itself from its own ring
// and hands the hot part of its key space to the new owners (POST
// /cluster/warm), so a rolling restart does not cold-start the cache.
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
	"math/rand"
	"net/http"
	"sort"
	"strconv"
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
	defaultReplicas     = 64
	defaultPeerTimeout  = 5 * time.Second
	defaultMaxRetries   = 1
	defaultRetryBackoff = 25 * time.Millisecond
	defaultSuspect      = 1
	defaultQuarantine   = 3
	defaultProbeEvery   = time.Second
	defaultBrFailures   = 5
	defaultBrCooldown   = 500 * time.Millisecond
	defaultHotSet       = 4096
	defaultWarmBatch    = 256

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
	WarmCache(pairs []dna.Pair, scores []int) int
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
	// Local executes batches on this node and accepts warm handoffs.
	Local Local
	// Scoring and Lanes must match the local service's, so the routing key
	// equals the aligncache key and forwards land on warm caches.
	Scoring swa.Scoring
	Lanes   int

	// Replicas is the number of virtual ring points per member (default 64).
	Replicas int
	// PeerTimeout bounds one forward attempt (default 5s).
	PeerTimeout time.Duration
	// HedgeAfter, when >0, starts local execution if a forward has not
	// answered within this duration; the first success wins.
	HedgeAfter time.Duration
	// MaxRetries is how many times one forward is re-attempted after the
	// first failure (default 1). Every exhaustion falls back to local.
	MaxRetries int
	// RetryBackoff is the base backoff between forward retries, jittered
	// up to 2x (default 25ms). Also the fallback wait for a 429 whose
	// Retry-After is absent.
	RetryBackoff time.Duration

	// SuspectAfter / QuarantineAfter are the consecutive-failure thresholds
	// of the health machine (defaults 1 and 3).
	SuspectAfter    int
	QuarantineAfter int
	// ProbeInterval is how long a quarantined peer waits before a readmission
	// probe, and the cadence of background health probes (default 1s).
	ProbeInterval time.Duration

	// BreakerFailures / BreakerCooldown configure the per-peer circuit
	// breaker (defaults 5 and 500ms).
	BreakerFailures int
	BreakerCooldown time.Duration

	// HotSetSize bounds the recently-served key set kept for drain handoff
	// (default 4096 entries).
	HotSetSize int
	// WarmBatch bounds how many entries one /cluster/warm POST carries
	// (default 256).
	WarmBatch int

	// Metrics, when set, receives the cluster_* counters and gauges.
	Metrics *obs.Registry
	// Client is the HTTP client used for forwards and probes (a seam for
	// tests; defaults to a dedicated client with sane pooling).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = defaultReplicas
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = defaultPeerTimeout
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = defaultMaxRetries
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = defaultRetryBackoff
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = defaultSuspect
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = defaultQuarantine
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = defaultProbeEvery
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = defaultBrFailures
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = defaultBrCooldown
	}
	if c.HotSetSize <= 0 {
		c.HotSetSize = defaultHotSet
	}
	if c.WarmBatch <= 0 {
		c.WarmBatch = defaultWarmBatch
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}}
	}
	return c
}

// State is one peer's health state: a failure streak makes a peer suspect
// and then quarantined, and after the probe cooldown a successful probe
// readmits it.
type State int

const (
	// Healthy peers are ring members and receive forwards.
	Healthy State = iota
	// Suspect peers are still ring members but one failure streak away
	// from quarantine.
	Suspect
	// Quarantined peers are out of the ring — their keys have re-homed —
	// until the probe cooldown elapses.
	Quarantined
	// Probing peers are being health-checked for readmission; still out of
	// the ring until the probe succeeds.
	Probing
)

var stateNames = [...]string{"healthy", "suspect", "quarantined", "probing"}

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
	br      *breaker

	// health fields are guarded by the Cluster's mu (membership changes
	// must atomically rebuild the ring).
	state         State
	consec        int
	lastErr       string
	quarantinedAt time.Time
	lastProbe     time.Time
	quarantines   int64
	readmissions  int64

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

	mu          sync.Mutex // peers' health + ring rebuilds
	peers       map[string]*peer
	order       []*peer // deterministic iteration for stats
	ring        atomic.Pointer[ring]
	ringVersion int64
	rehomes     int64

	draining atomic.Bool
	closed   chan struct{}
	wg       sync.WaitGroup

	hot *hotset

	batches         atomic.Int64
	localPairs      atomic.Int64
	forwardedPairs  atomic.Int64
	fallbackPairs   atomic.Int64
	shortCircuits   atomic.Int64
	hedges          atomic.Int64
	hedgeLocalWins  atomic.Int64
	retry429Waits   atomic.Int64
	forwardedServed atomic.Int64
	loopRejects     atomic.Int64
	handoffEntries  atomic.Int64
	handoffPeers    atomic.Int64
	warmAccepted    atomic.Int64

	mRing     *obs.Gauge
	mRingVer  *obs.Gauge
	mRehomes  *obs.Counter
	mFallback *obs.Counter
	mShortC   *obs.Counter
	mHedges   *obs.Counter
	mPeerHits *obs.Counter
	mServed   *obs.Counter
	mLoops    *obs.Counter
	mHandoff  *obs.Counter
	mWarm     *obs.Counter
}

// New builds a Cluster and starts its health prober. Close stops it.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.NodeID == "" {
		return nil, errors.New("cluster: NodeID is required")
	}
	if cfg.Local == nil {
		return nil, errors.New("cluster: Local is required")
	}
	c := &Cluster{
		cfg:    cfg,
		self:   cfg.NodeID,
		peers:  make(map[string]*peer, len(cfg.Peers)),
		closed: make(chan struct{}),
		hot:    newHotset(cfg.HotSetSize),
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
		pr := &peer{id: p.ID, url: p.URL, br: newPeerBreaker(cfg.BreakerFailures, cfg.BreakerCooldown)}
		c.peers[p.ID] = pr
		c.order = append(c.order, pr)
	}
	sort.Slice(c.order, func(i, j int) bool { return c.order[i].id < c.order[j].id })
	c.initMetrics()
	c.mu.Lock()
	c.rebuildRingLocked()
	c.mu.Unlock()
	if len(c.peers) > 0 {
		c.wg.Add(1)
		go c.prober()
	}
	return c, nil
}

func (c *Cluster) initMetrics() {
	m := c.cfg.Metrics
	if m == nil {
		return
	}
	m.Help("cluster_ring_members", "Nodes currently in the consistent-hash ring (including self unless draining).")
	m.Help("cluster_ring_version", "Monotonic ring rebuild counter; each bump re-homes some key arcs.")
	m.Help("cluster_rehomes_total", "Ring rebuilds caused by membership changes (quarantine, readmission, drain).")
	m.Help("cluster_peer_state", "Peer health state (0 healthy, 1 suspect, 2 quarantined, 3 probing).")
	m.Help("cluster_fallbacks_total", "Owner groups served locally after a failed forward.")
	m.Help("cluster_short_circuits_total", "Forwards skipped by an open peer breaker.")
	m.Help("cluster_hedges_total", "Local executions raced against a slow forward.")
	m.Help("cluster_peer_cache_hits_total", "Cache hits reported by peers for forwarded pairs.")
	m.Help("cluster_forwarded_served_total", "Forwarded requests this node served for a peer.")
	m.Help("cluster_loop_rejects_total", "Forwarded requests rejected by the hop guard.")
	m.Help("cluster_handoff_entries_total", "Hot cache entries pushed to new owners during drain.")
	m.Help("cluster_warm_accepted_total", "Warm handoff entries accepted from draining peers.")
	c.mRing = m.Gauge("cluster_ring_members")
	c.mRingVer = m.Gauge("cluster_ring_version")
	c.mRehomes = m.Counter("cluster_rehomes_total")
	c.mFallback = m.Counter("cluster_fallbacks_total")
	c.mShortC = m.Counter("cluster_short_circuits_total")
	c.mHedges = m.Counter("cluster_hedges_total")
	c.mPeerHits = m.Counter("cluster_peer_cache_hits_total")
	c.mServed = m.Counter("cluster_forwarded_served_total")
	c.mLoops = m.Counter("cluster_loop_rejects_total")
	c.mHandoff = m.Counter("cluster_handoff_entries_total")
	c.mWarm = m.Counter("cluster_warm_accepted_total")
	for _, p := range c.order {
		p.mState = m.Gauge(obs.L("cluster_peer_state", "peer", p.id))
		p.mQuar = m.Counter(obs.L("cluster_quarantines_total", "peer", p.id))
		p.mRead = m.Counter(obs.L("cluster_readmissions_total", "peer", p.id))
		p.mFwd = m.Counter(obs.L("cluster_forwards_total", "peer", p.id))
		p.mFErr = m.Counter(obs.L("cluster_forward_errors_total", "peer", p.id))
	}
}

// Close stops the prober. In-flight Aligns finish normally.
func (c *Cluster) Close() {
	if c == nil {
		return
	}
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
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
// states: self (unless draining) plus every peer not quarantined or probing.
// Callers hold c.mu.
func (c *Cluster) rebuildRingLocked() {
	members := make([]string, 0, len(c.peers)+1)
	if !c.draining.Load() {
		members = append(members, c.self)
	}
	for _, p := range c.order {
		if p.state == Healthy || p.state == Suspect {
			members = append(members, p.id)
		}
	}
	c.ring.Store(buildRing(members, c.cfg.Replicas))
	c.ringVersion++
	if c.mRing != nil {
		c.mRing.Set(float64(len(members)))
		c.mRingVer.Set(float64(c.ringVersion))
	}
}

// setStateLocked moves a peer's health state, exporting the gauge.
func (c *Cluster) setStateLocked(p *peer, to State) {
	if p.state == to {
		return
	}
	p.state = to
	if p.mState != nil {
		p.mState.Set(float64(to))
	}
}

// noteSuccess resets a peer's failure streak; quarantined/probing peers are
// readmitted and the ring re-homes their arcs back.
func (c *Cluster) noteSuccess(p *peer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p.consec = 0
	p.lastErr = ""
	switch p.state {
	case Healthy:
	case Suspect:
		c.setStateLocked(p, Healthy)
	case Quarantined, Probing:
		c.setStateLocked(p, Healthy)
		p.readmissions++
		if p.mRead != nil {
			p.mRead.Inc()
		}
		c.rehomes++
		if c.mRehomes != nil {
			c.mRehomes.Inc()
		}
		c.rebuildRingLocked()
	}
}

// noteFailure advances a peer's failure streak through the health machine;
// crossing the quarantine threshold removes it from the ring (keys re-home).
func (c *Cluster) noteFailure(p *peer, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p.consec++
	if err != nil {
		p.lastErr = err.Error()
	}
	switch {
	case p.consec >= c.cfg.QuarantineAfter && p.state != Quarantined && p.state != Probing:
		c.setStateLocked(p, Quarantined)
		p.quarantinedAt = time.Now()
		p.quarantines++
		if p.mQuar != nil {
			p.mQuar.Inc()
		}
		c.rehomes++
		if c.mRehomes != nil {
			c.mRehomes.Inc()
		}
		c.rebuildRingLocked()
	case p.consec >= c.cfg.SuspectAfter && p.state == Healthy:
		c.setStateLocked(p, Suspect)
	case p.state == Probing:
		// Failed readmission probe: back to quarantine, restart cooldown.
		c.setStateLocked(p, Quarantined)
		p.quarantinedAt = time.Now()
	}
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
	keys := make([]aligncache.Key, len(pairs))
	groups := make(map[string][]int, 3)
	var order []string // first-appearance order, deterministic merge
	for i, p := range pairs {
		keys[i] = aligncache.KeyOf(p.X, p.Y, c.cfg.Scoring, c.cfg.Lanes)
		owner := r.owner(pointOf(keys[i]))
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
			c.recordHot(keys, pairs, res.Scores)
		}
		return res, err
	}

	type groupOut struct {
		scores []int
		rep    *alignsvc.Report
		err    error
	}
	outs := make([]groupOut, len(order))
	var wg sync.WaitGroup
	for gi, owner := range order {
		idx := groups[owner]
		sub := make([]dna.Pair, len(idx))
		subKeys := make([]aligncache.Key, len(idx))
		for j, i := range idx {
			sub[j] = pairs[i]
			subKeys[j] = keys[i]
		}
		wg.Add(1)
		go func(gi int, owner string, sub []dna.Pair, subKeys []aligncache.Key) {
			defer wg.Done()
			if owner == "" {
				res, err := c.cfg.Local.Align(ctx, sub)
				if err != nil {
					outs[gi] = groupOut{err: err}
					return
				}
				c.localPairs.Add(int64(len(sub)))
				c.recordHot(subKeys, sub, res.Scores)
				outs[gi] = groupOut{scores: res.Scores, rep: &res.Report}
				return
			}
			scores, rep, err := c.alignVia(ctx, owner, sub)
			outs[gi] = groupOut{scores: scores, rep: rep, err: err}
		}(gi, owner, sub, subKeys)
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
			scores[i] = o.scores[j]
		}
		if o.rep != nil {
			mergeReport(&merged, o.rep)
		}
	}
	return &alignsvc.BatchResult{Scores: scores, Report: merged}, nil
}

// mergeReport folds one group's local report into the batch report. Remote
// groups contribute nothing here (they were served elsewhere); their cache
// hits are tracked in the cluster stats, not the batch report.
func mergeReport(dst *alignsvc.Report, src *alignsvc.Report) {
	// Report the worst tier any local group needed. TierBitwise, the zero
	// Tier, is the lowest, so the first group needs no special case.
	if src.Tier > dst.Tier {
		dst.Tier = src.Tier
	}
	dst.Fallbacks += src.Fallbacks
	if src.Elapsed > dst.Elapsed {
		dst.Elapsed = src.Elapsed
	}
	dst.CacheHits += src.CacheHits
	dst.CacheCoalesced += src.CacheCoalesced
}

// alignVia forwards one owner group to its peer, degrading to local
// execution on every failure mode: unknown peer (stale config), open
// breaker, transport errors, shedding beyond budget, malformed responses.
func (c *Cluster) alignVia(ctx context.Context, owner string, sub []dna.Pair) ([]int, *alignsvc.Report, error) {
	c.mu.Lock()
	p := c.peers[owner]
	c.mu.Unlock()
	if p == nil {
		return c.localFallback(ctx, sub)
	}
	if c.cfg.HedgeAfter > 0 {
		return c.alignHedged(ctx, p, sub)
	}
	scores, err := c.forward(ctx, p, sub)
	if err == nil {
		c.forwardedPairs.Add(int64(len(sub)))
		return scores, nil, nil
	}
	if ctx.Err() != nil {
		return nil, nil, ctx.Err()
	}
	return c.localFallback(ctx, sub)
}

// localFallback serves a peer-owned group on this node. The pairs are not
// recorded in the hotset: they belong to another node's arc.
func (c *Cluster) localFallback(ctx context.Context, sub []dna.Pair) ([]int, *alignsvc.Report, error) {
	c.fallbackPairs.Add(int64(len(sub)))
	if c.mFallback != nil {
		c.mFallback.Inc()
	}
	res, err := c.cfg.Local.Align(ctx, sub)
	if err != nil {
		return nil, nil, err
	}
	return res.Scores, &res.Report, nil
}

// alignHedged races the forward against local execution started HedgeAfter
// later; the first success wins and the loser is cancelled.
func (c *Cluster) alignHedged(ctx context.Context, p *peer, sub []dna.Pair) ([]int, *alignsvc.Report, error) {
	fctx, cancelF := context.WithCancel(ctx)
	defer cancelF()
	type out struct {
		scores []int
		rep    *alignsvc.Report
		err    error
	}
	fch := make(chan out, 1)
	go func() {
		s, err := c.forward(fctx, p, sub)
		fch <- out{scores: s, err: err}
	}()

	timer := time.NewTimer(c.cfg.HedgeAfter)
	defer timer.Stop()
	var lch chan out
	startLocal := func() {
		lch = make(chan out, 1)
		go func() {
			res, err := c.cfg.Local.Align(ctx, sub)
			if err != nil {
				lch <- out{err: err}
				return
			}
			lch <- out{scores: res.Scores, rep: &res.Report}
		}()
	}

	var ferr, lerr error
	fwd := fch
	for fwd != nil || lch != nil {
		select {
		case <-timer.C:
			if lch == nil && fwd != nil {
				c.hedges.Add(1)
				if c.mHedges != nil {
					c.mHedges.Inc()
				}
				startLocal()
			}
		case o := <-fwd:
			fwd = nil
			if o.err == nil {
				c.forwardedPairs.Add(int64(len(sub)))
				return o.scores, nil, nil
			}
			ferr = o.err
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			if lch == nil {
				// Forward failed before the hedge fired: this is a plain
				// fallback, not a hedge.
				return c.localFallback(ctx, sub)
			}
		case o := <-lch:
			lch = nil
			if o.err == nil {
				c.hedgeLocalWins.Add(1)
				cancelF()
				return o.scores, o.rep, nil
			}
			lerr = o.err
		}
	}
	if lerr != nil {
		return nil, nil, lerr
	}
	return nil, nil, ferr
}

// errShortCircuit reports a forward skipped by an open breaker; the caller
// degrades to local without having paid any network cost.
var errShortCircuit = errors.New("cluster: peer breaker open")

// forward sends one owner group to its peer and returns the scores. It
// enforces the per-attempt PeerTimeout, propagates the caller's remaining
// deadline in the body, honours Retry-After on 429 without charging the
// peer's health, and retries transport failures with jittered backoff up to
// MaxRetries. Any error return means "fall back to local".
func (c *Cluster) forward(ctx context.Context, p *peer, sub []dna.Pair) ([]int, error) {
	allowed, probe := p.br.allow()
	if !allowed {
		c.shortCircuits.Add(1)
		if c.mShortC != nil {
			c.mShortC.Inc()
		}
		return nil, errShortCircuit
	}

	body, err := json.Marshal(c.wireRequest(ctx, sub))
	if err != nil {
		p.br.release(probe)
		return nil, fmt.Errorf("cluster: encode forward: %w", err)
	}

	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			backoff := c.cfg.RetryBackoff + time.Duration(rand.Int63n(int64(c.cfg.RetryBackoff)))
			if !sleepCtx(ctx, backoff) {
				p.br.release(probe)
				return nil, ctx.Err()
			}
		}
		scores, retryAfter, err := c.post(ctx, p, body, len(sub))
		if err == nil {
			p.br.success()
			c.noteSuccess(p)
			p.forwards.Add(1)
			if p.mFwd != nil {
				p.mFwd.Inc()
			}
			return scores, nil
		}
		lastErr = err
		p.forwardErrs.Add(1)
		if p.mFErr != nil {
			p.mFErr.Inc()
		}
		if ctx.Err() != nil {
			p.br.release(probe)
			return nil, err
		}
		if retryAfter >= 0 {
			// 429: the peer is alive and shedding load — deliberately not a
			// breaker or health failure. Wait as instructed if the budget
			// allows, then retry; otherwise degrade to local.
			c.retry429Waits.Add(1)
			if !sleepCtx(ctx, retryAfter) {
				p.br.release(probe)
				return nil, err
			}
			continue
		}
		p.br.fail()
		c.noteFailure(p, err)
		if probe {
			// The half-open probe failed; don't burn retries on a peer the
			// breaker just re-opened.
			return nil, err
		}
	}
	return nil, lastErr
}

// wireRequest builds the forwarded /align body, propagating the remaining
// deadline budget so the peer never works past our own deadline.
func (c *Cluster) wireRequest(ctx context.Context, sub []dna.Pair) wireAlignReq {
	req := wireAlignReq{Pairs: make([]WirePair, len(sub))}
	for i, p := range sub {
		req.Pairs[i] = WirePair{X: p.X.String(), Y: p.Y.String()}
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

// post performs one forward attempt. retryAfter is ≥0 only for a 429, carrying
// the peer's requested wait (capped at PeerTimeout).
func (c *Cluster) post(ctx context.Context, p *peer, body []byte, wantScores int) (scores []int, retryAfter time.Duration, err error) {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodPost, p.url+"/align", bytes.NewReader(body))
	if err != nil {
		return nil, -1, fmt.Errorf("cluster: peer %s: %w", p.id, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, c.self)
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, -1, fmt.Errorf("cluster: peer %s: %w", p.id, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerRespBytes))
	if err != nil {
		return nil, -1, fmt.Errorf("cluster: peer %s: read response: %w", p.id, err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		wait := c.cfg.RetryBackoff
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, perr := strconv.Atoi(s); perr == nil && secs >= 0 {
				wait = time.Duration(secs) * time.Second
			}
		}
		if wait > c.cfg.PeerTimeout {
			wait = c.cfg.PeerTimeout
		}
		return nil, wait, fmt.Errorf("cluster: peer %s shedding (429)", p.id)
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(raw))
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return nil, -1, fmt.Errorf("cluster: peer %s: HTTP %d: %s", p.id, resp.StatusCode, msg)
	}
	var out wireAlignResp
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, -1, fmt.Errorf("cluster: peer %s: decode response: %w", p.id, err)
	}
	if len(out.Scores) != wantScores {
		return nil, -1, fmt.Errorf("cluster: peer %s returned %d scores for %d pairs", p.id, len(out.Scores), wantScores)
	}
	if out.Report.CacheHits > 0 {
		p.peerCacheHits.Add(int64(out.Report.CacheHits))
		if c.mPeerHits != nil {
			c.mPeerHits.Add(int64(out.Report.CacheHits))
		}
	}
	return out.Scores, -1, nil
}

// WirePair is one (pattern, text) pair as ACGT strings on the peer wire —
// the same shape as the server's PairJSON, defined here (with the private
// wireAlignReq/wireAlignResp mirrors of /align) because internal/server
// imports this package, not the other way round.
type WirePair struct {
	X string `json:"x"`
	Y string `json:"y"`
}

type wireAlignReq struct {
	Pairs     []WirePair `json:"pairs"`
	TimeoutMS int64      `json:"timeout_ms,omitempty"`
}

type wireAlignResp struct {
	Scores []int `json:"scores"`
	Report struct {
		CacheHits int `json:"cache_hits"`
	} `json:"report"`
}

// WarmRequest is the /cluster/warm body: parallel pairs and scores a
// draining peer hands to the new owner of their arc.
type WarmRequest struct {
	Pairs  []WirePair `json:"pairs"`
	Scores []int      `json:"scores"`
}

// sleepCtx sleeps for d or until the context ends; reports whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// prober is the background health loop: it probes live peers at
// ProbeInterval (so silent deaths and draining peers are noticed even
// without traffic) and quarantined peers after their cooldown, readmitting
// on success.
func (c *Cluster) prober() {
	defer c.wg.Done()
	tick := c.cfg.ProbeInterval / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
		}
		now := time.Now()
		var due []*peer
		c.mu.Lock()
		for _, p := range c.order {
			switch p.state {
			case Healthy, Suspect:
				if now.Sub(p.lastProbe) >= c.cfg.ProbeInterval {
					p.lastProbe = now
					due = append(due, p)
				}
			case Quarantined:
				if now.Sub(p.quarantinedAt) >= c.cfg.ProbeInterval {
					c.setStateLocked(p, Probing)
					p.lastProbe = now
					due = append(due, p)
				}
			}
		}
		c.mu.Unlock()
		for _, p := range due {
			// Off-lock: a probe is one bounded GET, but N of them must not
			// serialize behind the membership lock.
			if err := c.probeOne(p); err != nil {
				c.noteFailure(p, err)
			} else {
				c.noteSuccess(p)
			}
		}
	}
}

// probeOne checks a peer's /readyz. A draining or dead peer fails here and
// leaves the ring, so its keys re-home even when no traffic touches it.
func (c *Cluster) probeOne(p *peer) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.PeerTimeout)
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

// Draining reports whether BeginDrain has run.
func (c *Cluster) Draining() bool {
	if c == nil {
		return false
	}
	return c.draining.Load()
}

// NoteForwardedServed counts a forwarded request this node served for a
// peer; the server calls it from the hop guard. Nil-safe.
func (c *Cluster) NoteForwardedServed() {
	if c == nil {
		return
	}
	c.forwardedServed.Add(1)
	if c.mServed != nil {
		c.mServed.Inc()
	}
}

// NoteLoopReject counts a forwarded request rejected by the hop guard.
// Nil-safe.
func (c *Cluster) NoteLoopReject() {
	if c == nil {
		return
	}
	c.loopRejects.Add(1)
	if c.mLoops != nil {
		c.mLoops.Inc()
	}
}

// NoteWarmAccepted counts entries accepted from a draining peer's handoff;
// the server's /cluster/warm handler calls it. Nil-safe.
func (c *Cluster) NoteWarmAccepted(entries int) {
	if c == nil || entries <= 0 {
		return
	}
	c.warmAccepted.Add(int64(entries))
	if c.mWarm != nil {
		c.mWarm.Add(int64(entries))
	}
}

// BeginDrain removes this node from its own ring and hands the hot part of
// its key space to the new owners: the hotset is re-bucketed under the
// self-less ring and each bucket is pushed to its owner via /cluster/warm.
// Best-effort and coordinator-free — peers notice the drain independently
// through their own probes ( /readyz goes false) and stop forwarding to us.
func (c *Cluster) BeginDrain(ctx context.Context) {
	if c == nil || !c.draining.CompareAndSwap(false, true) {
		return
	}
	c.mu.Lock()
	c.rebuildRingLocked() // self is gone: our arcs re-home to the survivors
	c.rehomes++
	if c.mRehomes != nil {
		c.mRehomes.Inc()
	}
	r := c.currentRing()
	live := make(map[string]*peer, len(c.peers))
	for id, p := range c.peers {
		if p.state == Healthy || p.state == Suspect {
			live[id] = p
		}
	}
	c.mu.Unlock()

	entries := c.hot.snapshot()
	if len(entries) == 0 || len(live) == 0 || r == nil {
		return
	}
	buckets := make(map[string][]hotEntry, len(live))
	for _, e := range entries {
		owner := r.owner(pointOf(e.key))
		if _, ok := live[owner]; !ok {
			continue
		}
		buckets[owner] = append(buckets[owner], e)
	}
	for owner, bucket := range buckets {
		p := live[owner]
		sent := 0
		for start := 0; start < len(bucket); start += c.cfg.WarmBatch {
			end := min(start+c.cfg.WarmBatch, len(bucket))
			if err := c.postWarm(ctx, p, bucket[start:end]); err != nil {
				break // best-effort: the peer can always recompute
			}
			sent += end - start
		}
		if sent > 0 {
			c.handoffEntries.Add(int64(sent))
			c.handoffPeers.Add(1)
			if c.mHandoff != nil {
				c.mHandoff.Add(int64(sent))
			}
		}
	}
}

// postWarm pushes one handoff chunk to the given peer.
func (c *Cluster) postWarm(ctx context.Context, p *peer, entries []hotEntry) error {
	req := WarmRequest{Pairs: make([]WirePair, len(entries)), Scores: make([]int, len(entries))}
	for i, e := range entries {
		req.Pairs[i] = WirePair{X: e.pair.X.String(), Y: e.pair.Y.String()}
		req.Scores[i] = e.score
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	pctx, cancel := context.WithTimeout(ctx, c.cfg.PeerTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(pctx, http.MethodPost, p.url+"/cluster/warm", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(ForwardHeader, c.self)
	resp, err := c.cfg.Client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: warm %s: HTTP %d", p.id, resp.StatusCode)
	}
	return nil
}

// recordHot remembers locally-owned served pairs for a future drain handoff.
func (c *Cluster) recordHot(keys []aligncache.Key, pairs []dna.Pair, scores []int) {
	if len(pairs) != len(scores) {
		return
	}
	for i := range pairs {
		c.hot.add(keys[i], pairs[i], scores[i])
	}
}

// hotEntry is one recently-served (pair, score) this node owned.
type hotEntry struct {
	key   aligncache.Key
	pair  dna.Pair
	score int
}

// hotset is a bounded FIFO-evicting set of recently-served entries, the
// working set a draining node hands to its successors.
type hotset struct {
	mu      sync.Mutex
	cap     int
	entries []hotEntry
	index   map[aligncache.Key]int
	next    int // FIFO eviction cursor once full
}

func newHotset(capacity int) *hotset {
	return &hotset{cap: capacity, index: make(map[aligncache.Key]int, capacity)}
}

func (h *hotset) add(k aligncache.Key, p dna.Pair, score int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i, ok := h.index[k]; ok {
		h.entries[i].score = score
		return
	}
	if len(h.entries) < h.cap {
		h.entries = append(h.entries, hotEntry{key: k, pair: p, score: score})
		h.index[k] = len(h.entries) - 1
		return
	}
	delete(h.index, h.entries[h.next].key)
	h.entries[h.next] = hotEntry{key: k, pair: p, score: score}
	h.index[k] = h.next
	h.next = (h.next + 1) % h.cap
}

func (h *hotset) snapshot() []hotEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]hotEntry(nil), h.entries...)
}

func (h *hotset) len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.entries)
}
