// Package tenant is the multi-tenancy layer of the serving stack: API-key
// tenants with per-tenant token-bucket rate limits (requests/sec and DP
// cells/sec), per-tenant concurrency caps and queue bounds, and a
// weighted-fair admission scheduler (deficit round-robin) that divides the
// server's execution slots between tenants in proportion to their
// configured weights — so one flooding tenant saturates only its own share
// of the queue and is shed with 429 while everyone else's latency stays
// bounded.
//
// A Registry maps API keys (and bare tenant IDs, for keyless tenants) to
// *Tenant entries loaded from a static JSON config file; requests that
// present no credentials resolve to the built-in anonymous tenant. The
// Scheduler replaces a plain semaphore+queue admission gate: each tenant
// gets its own bounded FIFO of waiters, and freed slots are granted by
// deficit round-robin with quantum equal to the tenant's weight. The
// scheduler also tracks the observed grant rate, from which the server
// derives accurate Retry-After hints for shed responses.
package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"time"
)

// AnonymousID is the tenant every uncredentialed request resolves to.
const AnonymousID = "anonymous"

// Limits are the per-tenant quotas. Zero values mean "unlimited" (or, for
// Weight, the default weight 1).
type Limits struct {
	// Weight is the tenant's share of execution slots under contention:
	// a weight-2 tenant is granted twice as many slots per scheduling
	// round as a weight-1 tenant. Must be >= 1 when set (the DRR quantum
	// is one slot, so express ratios by scaling the other tenants up);
	// default 1.
	Weight float64 `json:"weight,omitempty"`
	// RPS caps admission attempts per second through a token bucket;
	// Burst is the bucket depth (default: RPS, min 1). 0 = unlimited.
	RPS   float64 `json:"rps,omitempty"`
	Burst float64 `json:"burst,omitempty"`
	// CellsPerSec caps the DP-matrix work rate (Σ |pattern|·|text| per
	// request) through a second bucket; CellBurst is its depth (default:
	// CellsPerSec). 0 = unlimited.
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
	CellBurst   float64 `json:"cell_burst,omitempty"`
	// MaxConcurrent caps how many of the tenant's requests may hold
	// execution slots at once (0 = bounded only by server capacity).
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// MaxQueued bounds the tenant's admission wait queue; beyond it the
	// tenant is shed with 429 (0 = the scheduler's default bound).
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxRunningJobs caps the tenant's live (queued or running) async
	// jobs; the cap is enforced against the WAL-backed store, so it
	// survives restarts (0 = unlimited).
	MaxRunningJobs int `json:"max_running_jobs,omitempty"`
}

// withDefaults normalizes the zero values.
func (l Limits) withDefaults() Limits {
	if l.Weight <= 0 {
		l.Weight = 1
	}
	if l.RPS > 0 && l.Burst <= 0 {
		l.Burst = math.Max(l.RPS, 1)
	}
	if l.CellsPerSec > 0 && l.CellBurst <= 0 {
		l.CellBurst = l.CellsPerSec
	}
	return l
}

// Tenant is one resolved principal: identity, credentials and quota state.
// Safe for concurrent use.
type Tenant struct {
	ID     string
	Key    string // API key; "" means the tenant is addressable by bare ID
	Limits Limits

	req   *bucket
	cells *bucket
}

// newTenant builds the runtime state for one configured tenant.
func newTenant(id, key string, l Limits, now func() time.Time) *Tenant {
	l = l.withDefaults()
	return &Tenant{
		ID:     id,
		Key:    key,
		Limits: l,
		req:    newBucket(l.RPS, l.Burst, now),
		cells:  newBucket(l.CellsPerSec, l.CellBurst, now),
	}
}

// AllowRequest spends one request token. When the bucket is empty it
// reports false plus how long until a token is available.
func (t *Tenant) AllowRequest() (bool, time.Duration) { return t.req.take(1) }

// AllowCells spends n DP-cell tokens (the request's Σ |pattern|·|text|).
// When the bucket cannot cover n it reports false plus the refill wait.
func (t *Tenant) AllowCells(n float64) (bool, time.Duration) { return t.cells.take(n) }

// bucket is a classic token bucket: refill on demand at rate/sec up to
// burst. A nil bucket is unlimited.
type bucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newBucket(rate, burst float64, now func() time.Time) *bucket {
	if rate <= 0 {
		return nil
	}
	if now == nil {
		now = time.Now
	}
	return &bucket{rate: rate, burst: burst, tokens: burst, last: now(), now: now}
}

// take spends n tokens, or reports how long until n tokens will have
// refilled. Requests larger than the burst can never pass; they get the
// time to refill n anyway, which the caller clamps to its sane range.
func (b *bucket) take(n float64) (bool, time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.now()
	b.tokens = math.Min(b.burst, b.tokens+t.Sub(b.last).Seconds()*b.rate)
	b.last = t
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	need := n - b.tokens
	return false, time.Duration(need / b.rate * float64(time.Second))
}

// Config is the JSON shape of a -tenants file.
type Config struct {
	// Anonymous overrides the limits of the built-in anonymous tenant
	// (default: weight 1, everything unlimited).
	Anonymous *Limits `json:"anonymous,omitempty"`
	// Tenants are the configured principals.
	Tenants []TenantConfig `json:"tenants"`
}

// TenantConfig is one tenant entry in the config file.
type TenantConfig struct {
	// ID is the stable tenant identity (required; "anonymous" is
	// reserved for the built-in default tenant).
	ID string `json:"id"`
	// Key is the API key presented in X-SWA-API-Key. A keyless tenant is
	// addressable by bare ID via X-SWA-Tenant — convenient for trusted
	// internal callers, unsafe for the open internet.
	Key    string `json:"key,omitempty"`
	Limits        // quota fields, inlined into the entry's JSON object
}

// Typed resolution errors, mapped onto 401 by the server.
var (
	// ErrUnknownKey rejects an API key that matches no tenant.
	ErrUnknownKey = errors.New("tenant: unknown API key")
	// ErrUnknownTenant rejects an X-SWA-Tenant naming no tenant.
	ErrUnknownTenant = errors.New("tenant: unknown tenant")
	// ErrKeyRequired rejects a bare X-SWA-Tenant for a tenant that has an
	// API key configured (IDs are public, keys are the credential).
	ErrKeyRequired = errors.New("tenant: tenant requires an API key")
	// ErrTenantMismatch rejects a request whose API key and X-SWA-Tenant
	// name different tenants.
	ErrTenantMismatch = errors.New("tenant: API key and tenant header disagree")
)

// Registry resolves request credentials to tenants. Build with NewRegistry
// or LoadFile; a nil-config NewRegistry yields the anonymous-only registry
// that reproduces untenanted behavior exactly.
type Registry struct {
	byID  map[string]*Tenant
	byKey map[string]*Tenant
	anon  *Tenant
}

// validateLimits rejects limit values the scheduler cannot honor: negatives,
// and fractional weights — the DRR quantum is one whole slot, so a weight
// below 1 would never accumulate enough deficit to be granted and its lone
// waiter would stall until its context expired.
func validateLimits(who string, l Limits) error {
	if l.Weight < 0 || l.RPS < 0 || l.Burst < 0 || l.CellsPerSec < 0 || l.CellBurst < 0 ||
		l.MaxConcurrent < 0 || l.MaxQueued < 0 || l.MaxRunningJobs < 0 {
		return fmt.Errorf("tenant: %s has a negative limit", who)
	}
	if l.Weight != 0 && l.Weight < 1 {
		return fmt.Errorf("tenant: %s has fractional weight %v; weights must be >= 1 (scale the other tenants up instead)", who, l.Weight)
	}
	return nil
}

// NewRegistry validates cfg and builds the registry. now is the bucket
// clock seam (nil = time.Now).
func NewRegistry(cfg Config, now func() time.Time) (*Registry, error) {
	anonLimits := Limits{}
	if cfg.Anonymous != nil {
		anonLimits = *cfg.Anonymous
		if err := validateLimits("the anonymous tenant", anonLimits); err != nil {
			return nil, err
		}
	}
	r := &Registry{
		byID:  make(map[string]*Tenant, len(cfg.Tenants)+1),
		byKey: make(map[string]*Tenant, len(cfg.Tenants)),
		anon:  newTenant(AnonymousID, "", anonLimits, now),
	}
	r.byID[AnonymousID] = r.anon
	for i, tc := range cfg.Tenants {
		if tc.ID == "" {
			return nil, fmt.Errorf("tenant: entry %d has no id", i)
		}
		if tc.ID == AnonymousID {
			return nil, fmt.Errorf("tenant: entry %d uses the reserved id %q (set the top-level anonymous limits instead)", i, AnonymousID)
		}
		if strings.ContainsRune(tc.ID, 0) {
			// NUL is the jobs store's key-namespacing separator; a tenant ID
			// carrying one could forge another tenant's namespaced keys.
			return nil, fmt.Errorf("tenant: entry %d id contains a NUL byte", i)
		}
		if _, dup := r.byID[tc.ID]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant id %q", tc.ID)
		}
		if err := validateLimits(fmt.Sprintf("tenant %q", tc.ID), tc.Limits); err != nil {
			return nil, err
		}
		t := newTenant(tc.ID, tc.Key, tc.Limits, now)
		r.byID[tc.ID] = t
		if tc.Key != "" {
			if _, dup := r.byKey[tc.Key]; dup {
				return nil, fmt.Errorf("tenant: tenant %q reuses another tenant's API key", tc.ID)
			}
			r.byKey[tc.Key] = t
		}
	}
	return r, nil
}

// Default returns the anonymous-only registry: every request resolves to
// the unlimited anonymous tenant, reproducing untenanted admission exactly.
func Default() *Registry {
	r, _ := NewRegistry(Config{}, nil)
	return r
}

// LoadFile reads and validates a -tenants JSON config file.
func LoadFile(path string) (*Registry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: read config: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, fmt.Errorf("tenant: parse %s: %w", path, err)
	}
	return NewRegistry(cfg, nil)
}

// Resolve maps request credentials to a tenant: an API key wins (and must
// agree with the tenant header when both are present), a bare tenant ID
// works only for keyless tenants, and no credentials mean anonymous.
func (r *Registry) Resolve(apiKey, id string) (*Tenant, error) {
	if apiKey != "" {
		t, ok := r.byKey[apiKey]
		if !ok {
			return nil, ErrUnknownKey
		}
		if id != "" && id != t.ID {
			return nil, fmt.Errorf("%w: key belongs to %q, header names %q", ErrTenantMismatch, t.ID, id)
		}
		return t, nil
	}
	if id != "" {
		t, ok := r.byID[id]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
		}
		if t.Key != "" {
			return nil, fmt.Errorf("%w: %q", ErrKeyRequired, id)
		}
		return t, nil
	}
	return r.anon, nil
}

// Get returns the tenant with the given ID, or nil. The anonymous tenant
// answers for both AnonymousID and "".
func (r *Registry) Get(id string) *Tenant {
	if id == "" {
		return r.anon
	}
	return r.byID[id]
}

// Len counts the configured tenants, the anonymous one included.
func (r *Registry) Len() int { return len(r.byID) }

// MaxRunningJobs returns the live-job cap for a tenant ID (0 = unlimited,
// including for unknown IDs — old WAL records may name tenants that have
// since left the config).
func (r *Registry) MaxRunningJobs(id string) int {
	if r == nil {
		return 0
	}
	if t := r.Get(id); t != nil {
		return t.Limits.MaxRunningJobs
	}
	return 0
}
