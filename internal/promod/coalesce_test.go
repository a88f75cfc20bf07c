package promod

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"promonet/internal/obs"
)

func TestCoalescerSingleFlight(t *testing.T) {
	coalesced := obs.NewCounter()
	c := newCoalescer(16, coalesced)

	var computes atomic.Int32
	var wg sync.WaitGroup
	const workers = 10
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			v, err := c.do("k", func() (any, error) {
				computes.Add(1)
				time.Sleep(50 * time.Millisecond) // hold the flight open for followers
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("do: v=%v err=%v", v, err)
			}
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1 (single flight)", got)
	}
	if coalesced.Value() != workers-1 {
		t.Errorf("coalesced counter = %d, want %d", coalesced.Value(), workers-1)
	}
	// Completed flight must now serve from cache without recomputing.
	if _, err := c.do("k", func() (any, error) {
		computes.Add(1)
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 1 {
		t.Error("cached key recomputed")
	}
}

func TestCoalescerErrorsNotCached(t *testing.T) {
	c := newCoalescer(16, obs.NewCounter())
	boom := errors.New("boom")
	if _, err := c.do("k", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, err := c.do("k", func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry after error: v=%v err=%v (errors must not be cached)", v, err)
	}
}

func TestCoalescerEvictionAndPrune(t *testing.T) {
	c := newCoalescer(2, obs.NewCounter())
	for _, k := range []string{"v1|a", "v1|b", "v2|c"} {
		if _, err := c.do(k, func() (any, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.size() != 2 {
		t.Errorf("cache size = %d, want 2 (FIFO eviction)", c.size())
	}
	c.prune(2)
	if c.size() != 1 {
		t.Errorf("after prune(2): size = %d, want 1 (only v2| keys survive)", c.size())
	}
	// The surviving entry must be the v2 one.
	var recomputed bool
	if _, err := c.do("v2|c", func() (any, error) { recomputed = true; return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if recomputed {
		t.Error("prune dropped the current version's entry")
	}
}

// TestCoalescerSupersededFlightNotCached: a leader pinned to an old
// snapshot that finishes after the swap's prune must not leave its entry
// behind, yet it and its followers still get the value.
func TestCoalescerSupersededFlightNotCached(t *testing.T) {
	c := newCoalescer(16, obs.NewCounter())
	c.prune(1)
	started, release := make(chan struct{}), make(chan struct{})
	vals := make(chan any, 2)
	go func() {
		v, _ := c.do("v1|promote|x", func() (any, error) {
			close(started)
			<-release
			return "old", nil
		})
		vals <- v
	}()
	<-started
	go func() {
		v, _ := c.do("v1|promote|x", func() (any, error) { return "recomputed", nil })
		vals <- v
	}()
	for c.coalesced.Value() == 0 { // wait until the follower has joined the flight
		time.Sleep(time.Millisecond)
	}
	c.prune(2)
	close(release)
	for i := 0; i < 2; i++ {
		if v := <-vals; v != "old" {
			t.Errorf("caller %d got %v, want the flight's value", i, v)
		}
	}
	if c.size() != 0 {
		t.Errorf("after a v1| flight finished past prune(2): size = %d, want 0", c.size())
	}
}
