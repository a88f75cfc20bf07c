package promod

import (
	"errors"
	"strings"
	"sync"

	"promonet/internal/obs"
)

// coalescer is the daemon's single-flight cache of promotion answers:
// concurrent requests for the same answer share one execution, and
// completed answers live in a bounded FIFO cache keyed by the same
// string. Keys embed the pinned snapshot's version ("v17|…"), so an
// answer can never be served against the wrong host; a swap prunes
// every superseded version's entries. Per-snapshot state (rank indexes,
// manifests, farness) is not cached here but on the snapshotState, so
// answer churn never evicts it.
//
// This is what turns "thousands of clients ask about the same few
// popular targets" from thousands of engine batches into one: the first
// request computes, its contemporaries block on the flight, and
// everyone after hits the cache.
type coalescer struct {
	mu        sync.Mutex
	flights   map[string]*flight
	cache     map[string]any
	order     []string // FIFO eviction order of cache keys
	live      string   // version prefix of the installed snapshot; "" admits all
	max       int
	coalesced *obs.Counter
}

// flight is one in-progress computation; followers block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

func newCoalescer(maxEntries int, coalesced *obs.Counter) *coalescer {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	return &coalescer{
		flights:   make(map[string]*flight),
		cache:     make(map[string]any),
		max:       maxEntries,
		coalesced: coalesced,
	}
}

// do returns the cached result for key, joins an in-progress flight for
// it, or becomes the leader and runs compute. Errors are returned to the
// leader and every follower of that flight but never cached — the next
// request retries.
func (c *coalescer) do(key string, compute func() (any, error)) (any, error) {
	c.mu.Lock()
	if v, ok := c.cache[key]; ok {
		c.mu.Unlock()
		return v, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.coalesced.Inc()
		<-f.done
		return f.val, f.err
	}
	f := &flight{done: make(chan struct{})}
	// Pre-set the error so that a panicking compute (recovered by the
	// HTTP layer) still releases followers with a failure instead of a
	// nil result.
	f.err = errors.New("promod: coalesced computation aborted")
	c.flights[key] = f
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.insertLocked(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = compute()
	return f.val, f.err
}

// insertLocked adds a completed result under c.mu, evicting the oldest
// entry when full. A result for a superseded snapshot (its leader
// finished after the swap's prune) is not kept; its leader and followers
// still receive it.
func (c *coalescer) insertLocked(key string, val any) {
	if _, ok := c.cache[key]; ok || !strings.HasPrefix(key, c.live) {
		return
	}
	for len(c.cache) >= c.max && len(c.order) > 0 {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.cache, old)
	}
	c.cache[key] = val
	c.order = append(c.order, key)
}

// prune drops every cached result except the given snapshot version's,
// and from then on caches only that version's results. Called from the
// swap path: requests still in flight on an old snapshot recompute on
// miss (correct, just uncached), while the new snapshot starts with the
// full cache budget.
func (c *coalescer) prune(keepVersion uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.live = versionPrefix(keepVersion)
	kept := c.order[:0]
	for _, k := range c.order {
		if strings.HasPrefix(k, c.live) {
			kept = append(kept, k)
		} else {
			delete(c.cache, k)
		}
	}
	c.order = kept
}

// size reports the number of cached entries (tests only).
func (c *coalescer) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}
