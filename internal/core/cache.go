package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/pattern"
	"repro/internal/xgft"
)

// CacheKeyer is implemented by algorithms whose Route function is a
// pure function of (topology spec, CacheKey): the same key on an
// equal-spec topology always yields the same routes. The key must
// therefore encode everything the algorithm was constructed from
// beyond the topology — the seed for the randomized schemes, the
// input phases for the pattern-aware ones. Algorithms that do not
// implement it are never memoized.
type CacheKeyer interface {
	CacheKey() string
}

// tableKey identifies one BuildTable computation. Besides the pattern
// fingerprint it keeps the cheap exact pattern invariants (N, flow
// count, byte total) so a 64-bit hash collision alone cannot alias two
// different computations.
type tableKey struct {
	topo    string
	algo    string
	n       int
	flows   int
	bytes   int64
	pattern uint64
}

// TableCache memoizes BuildTable results across experiment cells: the
// same (topology spec, algorithm identity, pattern content) triple is
// computed once and shared read-only afterwards. Cached *Table values
// must not be mutated by callers — routes are index data valid for any
// topology with the same spec.
//
// The cache is safe for concurrent use, and concurrent Build calls
// for the same key are coalesced singleflight-style: one caller
// computes, the rest wait for its result instead of duplicating the
// work (the case a fabric rebuild storm produces). Capacity bounds
// the number of retained tables with FIFO eviction; a capacity <= 0
// cache is a pass-through (never stores, never coalesces), which is
// how benchmarks measure the uncached engine.
type TableCache struct {
	capacity   int
	hits       atomic.Uint64
	misses     atomic.Uint64
	coalesced  atomic.Uint64
	algoHits   atomic.Uint64
	algoMisses atomic.Uint64

	mu       sync.Mutex
	entries  map[tableKey]*Table
	order    []tableKey
	inflight map[tableKey]*inflightBuild

	algoMu    sync.Mutex
	algos     map[string]Algorithm
	algoOrder []string
}

// inflightBuild is one in-progress BuildTable computation; done is
// closed after tbl/err are set.
type inflightBuild struct {
	done chan struct{}
	tbl  *Table
	err  error
}

// NewTableCache returns a cache retaining at most capacity tables.
// capacity <= 0 disables storage entirely (every Build recomputes).
func NewTableCache(capacity int) *TableCache {
	return &TableCache{
		capacity: capacity,
		entries:  make(map[tableKey]*Table),
		inflight: make(map[tableKey]*inflightBuild),
		algos:    make(map[string]Algorithm),
	}
}

// MemoAlgorithm memoizes an expensive deterministic algorithm
// construction (a Colored build costs time in proportion to its
// phases' distinct pairs) under the caller's key, which must encode
// every construction input. The returned instance may be shared across
// goroutines, so build must produce an algorithm whose Route is safe
// for concurrent use. Pass-through and nil caches always rebuild.
func (c *TableCache) MemoAlgorithm(key string, build func() Algorithm) Algorithm {
	if c == nil || c.capacity <= 0 {
		return build()
	}
	c.algoMu.Lock()
	algo, ok := c.algos[key]
	c.algoMu.Unlock()
	if ok {
		c.algoHits.Add(1)
		return algo
	}
	c.algoMisses.Add(1)
	algo = build()
	c.algoMu.Lock()
	if _, exists := c.algos[key]; !exists {
		for len(c.algoOrder) >= c.capacity {
			oldest := c.algoOrder[0]
			c.algoOrder = c.algoOrder[1:]
			delete(c.algos, oldest)
		}
		c.algos[key] = algo
		c.algoOrder = append(c.algoOrder, key)
	}
	c.algoMu.Unlock()
	return algo
}

// Build returns the routing table for the flow set, serving it from
// the cache when the algorithm is memoizable (implements CacheKeyer)
// and the triple has been built before. A nil cache, a pass-through
// cache, and a non-memoizable algorithm all fall back to BuildTable.
func (c *TableCache) Build(t *xgft.Topology, algo Algorithm, p *pattern.Pattern) (*Table, error) {
	if c == nil || c.capacity <= 0 {
		return BuildTable(t, algo, p)
	}
	keyer, ok := algo.(CacheKeyer)
	if !ok {
		return BuildTable(t, algo, p)
	}
	key := tableKey{
		topo:    t.String(),
		algo:    keyer.CacheKey(),
		n:       p.N,
		flows:   len(p.Flows),
		bytes:   p.TotalBytes(),
		pattern: p.Fingerprint(),
	}
	c.mu.Lock()
	if tbl := c.entries[key]; tbl != nil {
		c.mu.Unlock()
		c.hits.Add(1)
		return tbl, nil
	}
	if fl := c.inflight[key]; fl != nil {
		// Another goroutine is already computing this table: wait for
		// it instead of duplicating the build.
		c.mu.Unlock()
		<-fl.done
		c.coalesced.Add(1)
		return fl.tbl, fl.err
	}
	fl := &inflightBuild{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()
	c.misses.Add(1)
	// Complete the flight even if BuildTable panics (a malformed
	// pattern can make an algorithm panic): the key must not stay
	// wedged and waiters must not hang on done. The panic itself
	// still propagates to this caller; waiters see an error.
	defer func() {
		if fl.tbl == nil && fl.err == nil {
			fl.err = fmt.Errorf("core: table build for %q on %s panicked", key.algo, key.topo)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if fl.err == nil {
			if _, exists := c.entries[key]; !exists {
				for len(c.order) >= c.capacity {
					oldest := c.order[0]
					c.order = c.order[1:]
					delete(c.entries, oldest)
				}
				c.entries[key] = fl.tbl
				c.order = append(c.order, key)
			}
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.tbl, fl.err = BuildTable(t, algo, p)
	return fl.tbl, fl.err
}

// Coalesced reports how many Build calls were served by waiting on an
// identical in-flight computation instead of recomputing (neither a
// hit nor a miss in Stats' terms).
func (c *TableCache) Coalesced() uint64 {
	if c == nil {
		return 0
	}
	return c.coalesced.Load()
}

// Stats reports table-lookup effectiveness: hits and misses of
// memoizable Build calls since construction (pass-through builds and
// MemoAlgorithm lookups are not counted — see MemoStats).
func (c *TableCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// MemoStats reports MemoAlgorithm effectiveness: hits and misses of
// memoized algorithm constructions since construction.
func (c *TableCache) MemoStats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.algoHits.Load(), c.algoMisses.Load()
}

// Len returns the number of currently retained tables.
func (c *TableCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every retained table and memoized algorithm, keeping
// the hit/miss counters.
func (c *TableCache) Purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.entries = make(map[tableKey]*Table)
	c.order = nil
	c.mu.Unlock()
	c.algoMu.Lock()
	c.algos = make(map[string]Algorithm)
	c.algoOrder = nil
	c.algoMu.Unlock()
}
