// Package qacache exercises guardedfield on the answer-cache shard
// shape: the LRU list and key map are guarded by the shard mutex.
package qacache

import (
	"container/list"
	"sync"
)

// shard is one cache shard; ll and m move together under mu.
type shard struct {
	mu sync.Mutex
	ll *list.List               // guarded by mu
	m  map[string]*list.Element // guarded by mu
}

// get looks the key up under the lock — compliant.
func (s *shard) get(key string) (*list.Element, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if ok {
		s.ll.MoveToFront(el)
	}
	return el, ok
}

// size forgets the mutex on the list read.
func (s *shard) size() int {
	return s.ll.Len() // want `field ll is guarded by mu`
}

// drop forgets it on the map write.
func (s *shard) drop(key string) {
	delete(s.m, key) // want `field m is guarded by mu`
}

// evictLocked removes the oldest entry. Caller holds s.mu.
func (s *shard) evictLocked() {
	if el := s.ll.Back(); el != nil {
		s.ll.Remove(el)
	}
}
