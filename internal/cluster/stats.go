package cluster

// Stats is the cluster snapshot published through the server's /statsz.
// Counters are monotonic since process start; the ring fields describe the
// current membership view.
type Stats struct {
	NodeID      string   `json:"node_id"`
	RingMembers []string `json:"ring_members"`
	RingVersion int64    `json:"ring_version"` // ring builds: 1 at start, +1 per quarantine or readmission

	Batches        int64 `json:"batches"`         // batches routed through the cluster
	LocalPairs     int64 `json:"local_pairs"`     // pairs served because we own them
	ForwardedPairs int64 `json:"forwarded_pairs"` // pairs answered by a peer
	FallbackPairs  int64 `json:"fallback_pairs"`  // peer-owned pairs served locally after a failed forward
	PeerCacheHits  int64 `json:"peer_cache_hits"` // cache hits peers reported for our forwards

	ForwardedServed int64 `json:"forwarded_served"` // forwarded requests we answered 200 for peers
	LoopRejects     int64 `json:"loop_rejects"`     // forwards rejected by the hop guard

	Peers []PeerSnapshot `json:"peers"`
}

// PeerSnapshot is the exported view of one peer's health and counters.
type PeerSnapshot struct {
	ID            string `json:"id"`
	URL           string `json:"url"`
	State         State  `json:"state"`
	Quarantines   int64  `json:"quarantines"`
	Readmissions  int64  `json:"readmissions"`
	Forwards      int64  `json:"forwards"`
	ForwardErrors int64  `json:"forward_errors"`
	PeerCacheHits int64  `json:"peer_cache_hits"`
	LastError     string `json:"last_error,omitempty"`
}

// Stats snapshots the cluster. The membership fields are taken under the
// membership lock, so ring members and peer states are mutually consistent.
// Nil-safe: a nil cluster returns a zero Stats.
func (c *Cluster) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		NodeID:          c.self,
		Batches:         c.batches.Load(),
		LocalPairs:      c.localPairs.Load(),
		ForwardedPairs:  c.forwardedPairs.Load(),
		FallbackPairs:   c.fallbackPairs.Load(),
		ForwardedServed: c.forwardedServed.Load(),
		LoopRejects:     c.loopRejects.Load(),
	}
	c.mu.Lock()
	st.RingMembers = append([]string(nil), c.currentRing().members()...)
	st.RingVersion = c.ringVersion
	for _, p := range c.order {
		snap := PeerSnapshot{
			ID:            p.id,
			URL:           p.url,
			State:         p.state,
			Quarantines:   p.quarantines,
			Readmissions:  p.readmissions,
			Forwards:      p.forwards.Load(),
			ForwardErrors: p.forwardErrs.Load(),
			PeerCacheHits: p.peerCacheHits.Load(),
			LastError:     p.lastErr,
		}
		st.PeerCacheHits += snap.PeerCacheHits
		st.Peers = append(st.Peers, snap)
	}
	c.mu.Unlock()
	return st
}
