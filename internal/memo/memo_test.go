package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLRUCacheEviction pins the bound and recency behaviour of Get/Add.
func TestLRUCacheEviction(t *testing.T) {
	c := New[int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); !ok { // touch: a is now most recent
		t.Fatal("a missing")
	}
	c.Add("c", 3) // evicts b, the least recently used
	if _, ok := c.Get("b"); ok {
		t.Errorf("b survived eviction; LRU order not respected")
	}
	if _, ok := c.Get("a"); !ok {
		t.Errorf("recently-used a was evicted")
	}
	if c.Len() != 2 {
		t.Errorf("cache len %d, want 2", c.Len())
	}
	c.Add("c", 33) // update in place, no growth
	if v, _ := c.Get("c"); v != 33 || c.Len() != 2 {
		t.Errorf("update in place failed: v=%v len=%d", v, c.Len())
	}
}

// TestDoSharesOneCall pins that concurrent callers of one key share a single
// fn call, and that hit is false for exactly the caller that ran it.
func TestDoSharesOneCall(t *testing.T) {
	const callers = 16
	m := New[int](4)
	release := make(chan struct{})
	var calls, misses atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := m.Do("k", func() (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %v, %v; want 42, nil", v, err)
			}
			if !hit {
				misses.Add(1)
			}
		}()
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 || misses.Load() != 1 {
		t.Fatalf("fn ran %d times and %d callers reported a miss; want 1 and 1", calls.Load(), misses.Load())
	}
	if _, hit, _ := m.Do("k", func() (int, error) { return 0, errors.New("recomputed") }); !hit {
		t.Fatal("resident entry recomputed")
	}
}

// TestDoRetriesAfterError pins that a failed entry is dropped, so the next
// caller runs fn again instead of reading the cached failure.
func TestDoRetriesAfterError(t *testing.T) {
	m := New[int](4)
	boom := errors.New("boom")
	if _, hit, err := m.Do("k", func() (int, error) { return 0, boom }); hit || !errors.Is(err, boom) {
		t.Fatalf("first Do = hit %v, err %v; want miss, boom", hit, err)
	}
	if m.Len() != 0 {
		t.Fatalf("failed entry still resident (len %d)", m.Len())
	}
	v, hit, err := m.Do("k", func() (int, error) { return 7, nil })
	if hit || err != nil || v != 7 {
		t.Fatalf("retry = %v, hit %v, err %v; want 7, miss, nil", v, hit, err)
	}
	if _, hit, _ := m.Do("k", func() (int, error) { return 0, boom }); !hit {
		t.Fatal("successful retry was not kept")
	}
}

// TestDoKeepsReplacementOnError pins the "same entry" rule: when a key was
// re-mapped while its fn ran, the failure must not drop the replacement.
func TestDoKeepsReplacementOnError(t *testing.T) {
	m := New[int](4)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		_, _, err := m.Do("k", func() (int, error) {
			close(started)
			<-release
			return 0, errors.New("boom")
		})
		done <- err
	}()
	<-started
	m.Add("k", 9)
	close(release)
	if err := <-done; err == nil {
		t.Fatal("failing fn reported success")
	}
	if v, ok := m.Get("k"); !ok || v != 9 {
		t.Fatalf("Get = %v, %v; the failed call dropped the entry that replaced it", v, ok)
	}
}

// TestDoCompletesAfterEviction pins that an entry evicted while its fn runs
// still completes for its caller, and that the key is no longer shared.
func TestDoCompletesAfterEviction(t *testing.T) {
	m := New[int](1)
	started, release := make(chan struct{}), make(chan struct{})
	type out struct {
		v   int
		hit bool
		err error
	}
	done := make(chan out)
	go func() {
		v, hit, err := m.Do("a", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
		done <- out{v, hit, err}
	}()
	<-started
	if _, _, err := m.Do("b", func() (int, error) { return 2, nil }); err != nil {
		t.Fatal(err)
	}
	// "a" was evicted mid-flight: a new caller computes its own value.
	if v, hit, _ := m.Do("a", func() (int, error) { return 11, nil }); hit || v != 11 {
		t.Fatalf("Do(a) after eviction = %v, hit %v; want its own call", v, hit)
	}
	close(release)
	if o := <-done; o.err != nil || o.v != 1 || o.hit {
		t.Fatalf("evicted in-flight Do = %+v; want 1, miss, nil", o)
	}
	if m.Len() != 1 {
		t.Fatalf("len %d, want the capacity 1", m.Len())
	}
}

// TestDoPanicReleasesWaiters pins that a caller sharing a call whose fn
// panicked gets an error, never a zero value with a nil error, and that the
// key is retried afterwards.
func TestDoPanicReleasesWaiters(t *testing.T) {
	m := New[*int](4)
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		m.Do("k", func() (*int, error) {
			close(started)
			<-release
			panic("fn failed")
		})
	}()
	<-started
	type out struct {
		v   *int
		err error
	}
	joined := make(chan out)
	go func() {
		// Joins the in-flight call, or retries if it already failed.
		v, _, err := m.Do("k", func() (*int, error) { return new(int), nil })
		joined <- out{v, err}
	}()
	close(release)
	if p := <-panicked; p == nil {
		t.Fatal("fn's panic did not reach its caller")
	}
	if o := <-joined; o.err == nil && o.v == nil {
		t.Fatal("caller sharing a panicked call got a zero value and no error")
	} else if o.err != nil && !errors.Is(o.err, errAbandoned) {
		t.Fatalf("caller sharing a panicked call got %v, want errAbandoned", o.err)
	}
	if v, _, err := m.Do("k", func() (*int, error) { return new(int), nil }); err != nil || v == nil {
		t.Fatalf("retry after panic = %v, %v", v, err)
	}
}
