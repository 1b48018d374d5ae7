package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/aligncache"
	"repro/internal/alignsvc"
	"repro/internal/dna"
	"repro/internal/obs"
)

// benchWriter is a reusable ResponseWriter that keeps only the status, so
// the benchmark's own allocations stay out of the handler's.
type benchWriter struct {
	h    http.Header
	code int
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *benchWriter) WriteHeader(code int)        { w.code = code }

// BenchmarkHandlerCacheOnOff serves /align bodies through Handler() on the
// striped engine, once with a 64 MiB score cache and once with none, so the
// cache's own cost (keys, lookups, and the garbage collector's work over
// its live entries) reads as the difference in ns/op and allocs/op. The two
// shapes are those of the serve bench's /align workloads:
//
//   - bulk: 256 unique 128×1024 pairs per body, which never hit;
//   - small: 8 pairs of 128×256, the even ones drawn from a 4,096-pair hot
//     set warmed before timing and the odd ones fresh, so half hit.
//
// The cache is filled to its bound before timing, as on a server that has
// run for a while, since the collector's cost grows with live entries.
// ns/op includes rendering each body, the same with the cache as without.
func BenchmarkHandlerCacheOnOff(b *testing.B) {
	for _, sh := range []struct {
		name        string
		pairs, m, n int
		hot         int
	}{
		{name: "bulk", pairs: 256, m: 128, n: 1024},
		{name: "small", pairs: 8, m: 128, n: 256, hot: 4096},
	} {
		for _, cacheBytes := range []int64{64 << 20, 0} {
			b.Run(fmt.Sprintf("%s/cache=%dMiB", sh.name, cacheBytes>>20), func(b *testing.B) {
				rng := rand.New(rand.NewPCG(7, uint64(sh.pairs)))
				buf := make([]byte, 1<<20)
				for i := range buf {
					buf[i] = "ACGT"[rng.IntN(4)]
				}
				window := func() [2]int { return [2]int{rng.IntN(len(buf) - sh.m), rng.IntN(len(buf) - sh.n)} }
				hot := make([][2]int, sh.hot)
				for i := range hot {
					hot[i] = window()
				}
				var body []byte
				render := func(pick func(j int) [2]int) {
					body = append(body[:0], `{"pairs":[`...)
					for j := 0; j < sh.pairs; j++ {
						if j > 0 {
							body = append(body, ',')
						}
						p := pick(j)
						body = append(body, `{"x":"`...)
						body = append(body, buf[p[0]:p[0]+sh.m]...)
						body = append(body, `","y":"`...)
						body = append(body, buf[p[1]:p[1]+sh.n]...)
						body = append(body, `"}`...)
					}
					body = append(body, `]}`...)
				}

				cache := aligncache.New(aligncache.Config{MaxBytes: cacheBytes, Metrics: obs.NewRegistry()})
				svc := alignsvc.New(alignsvc.Config{Backend: alignsvc.BackendStriped, Cache: cache, Metrics: obs.NewRegistry()})
				defer svc.Close()
				srv, err := New(Config{Service: svc, Metrics: obs.NewRegistry()})
				if err != nil {
					b.Fatal(err)
				}
				h := srv.Handler()

				if cache != nil {
					cost := aligncache.Cost(make(dna.Seq, sh.m), make(dna.Seq, sh.n))
					var ctr [8]byte
					for i := int64(0); i < cacheBytes/cost*21/20; i++ {
						binary.LittleEndian.PutUint64(ctr[:], uint64(i))
						cache.Put(aligncache.Key(sha256.Sum256(ctr[:])), 0, cost)
					}
				}

				rd := bytes.NewReader(nil)
				r := httptest.NewRequest(http.MethodPost, "/align", nil)
				r.Body = io.NopCloser(rd)
				w := &benchWriter{h: make(http.Header)}
				serve := func() {
					rd.Reset(body)
					r.ContentLength = int64(len(body))
					w.code = http.StatusOK
					h.ServeHTTP(w, r)
					if w.code != http.StatusOK {
						b.Fatalf("status %d", w.code)
					}
				}
				for lo := 0; lo < len(hot); lo += sh.pairs {
					render(func(j int) [2]int { return hot[lo+j] })
					serve()
				}
				pick := func(j int) [2]int {
					if sh.hot > 0 && j%2 == 0 {
						return hot[rng.IntN(len(hot))]
					}
					return window()
				}

				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					render(pick)
					serve()
				}
			})
		}
	}
}
