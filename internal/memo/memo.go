// Package memo provides a bounded, goroutine-safe memo: a least-recently-used
// map from string keys to values, each computed at most once while its entry
// stays resident. The simulator's image cache and warm arena memoise
// expensive builds through Do; the service's result cache stores finished
// values through Get and Add.
//
// It imports only the standard library: every layer above it may use it.
package memo

import (
	"container/list"
	"errors"
	"sync"
)

// Memo is a bounded LRU memo. The zero value is not usable; call New.
type Memo[V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *entry[V]
	index map[string]*list.Element
}

type entry[V any] struct {
	key  string
	done chan struct{} // closed once val and err are final
	val  V
	err  error
}

// errAbandoned is what callers sharing an entry see when the call computing
// it panicked instead of returning.
var errAbandoned = errors.New("memo: computation panicked")

// New returns an empty memo holding at most capacity entries.
func New[V any](capacity int) *Memo[V] {
	return &Memo[V]{cap: capacity, order: list.New(), index: map[string]*list.Element{}}
}

// Do returns the value for key, calling fn to compute it when the key is not
// resident. Concurrent callers of one key share a single fn call. hit is true
// exactly when this caller did not run fn: it joined or reused another
// caller's computation.
//
// An entry evicted while its fn runs still completes for the callers holding
// it; it is simply not shared afterwards. A failed entry is dropped, provided
// the key still maps to it, so the next caller retries.
func (m *Memo[V]) Do(key string, fn func() (V, error)) (v V, hit bool, err error) {
	m.mu.Lock()
	e, hit := m.touch(key)
	if !hit {
		e = &entry[V]{key: key, done: make(chan struct{})}
		m.push(e)
	}
	m.mu.Unlock()
	if hit {
		<-e.done
		return e.val, true, e.err
	}
	defer func() {
		close(e.done)
		if e.err != nil {
			m.mu.Lock()
			if el, ok := m.index[key]; ok && el.Value.(*entry[V]) == e {
				m.order.Remove(el)
				delete(m.index, key)
			}
			m.mu.Unlock()
		}
	}()
	e.err = errAbandoned
	e.val, e.err = fn()
	return e.val, false, e.err
}

// Get returns the value stored for key, if a completed, successful entry
// holds one, and marks it most recently used.
func (m *Memo[V]) Get(key string) (v V, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.touch(key)
	if !ok {
		return v, false
	}
	select {
	case <-e.done:
		if e.err == nil {
			return e.val, true
		}
	default:
	}
	return v, false
}

// Add stores val under key as the most recently used entry, replacing any
// entry the key held. Callers still waiting on a replaced entry get its own
// result.
func (m *Memo[V]) Add(key string, val V) {
	e := &entry[V]{key: key, done: make(chan struct{}), val: val}
	close(e.done)
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.index[key]; ok {
		el.Value = e
		m.order.MoveToFront(el)
		return
	}
	m.push(e)
}

// Len returns the number of resident entries.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// touch returns key's entry and marks it most recently used. m.mu is held.
func (m *Memo[V]) touch(key string) (*entry[V], bool) {
	el, ok := m.index[key]
	if !ok {
		return nil, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*entry[V]), true
}

// push inserts e as the most recently used entry and evicts the least
// recently used ones beyond the capacity. m.mu is held.
func (m *Memo[V]) push(e *entry[V]) {
	m.index[e.key] = m.order.PushFront(e)
	for m.order.Len() > m.cap {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.index, oldest.Value.(*entry[V]).key)
	}
}
