package server

import (
	"math/bits"
	"sync"
)

// Cache is a sharded LRU over immutable byte values, sized for the
// result cache of the serving daemon: keys are (endpoint, epoch, user,
// params) tuples rendered to bytes, values are fully marshaled response
// bodies. Sharding by key hash keeps lock contention proportional to
// 1/shards under concurrent request goroutines, and the hit path —
// hash, one shard lock, map lookup, list splice — performs zero
// allocations, so a cache hit costs no garbage at any request rate.
//
// A nil *Cache is valid and permanently empty (caching disabled).
type Cache struct {
	shards []cacheShard
	mask   uint64
}

type cacheShard struct {
	mu       sync.Mutex
	m        map[string]*cacheEntry
	cap      int
	maxBytes int64 // budget for stored key+value bytes
	bytes    int64
	// Doubly-linked MRU list; head is most recent, tail the eviction
	// victim.
	head, tail *cacheEntry
}

type cacheEntry struct {
	key        string
	val        []byte
	prev, next *cacheEntry
}

func (e *cacheEntry) size() int64 { return int64(len(e.key) + len(e.val)) }

// The Server's cache geometry: cacheShards lock domains sharing a
// cacheMaxBytes payload budget (the entry count alone would not cap
// memory, since batched response bodies can reach megabytes each).
const (
	cacheShards   = 16
	cacheMaxBytes = 64 << 20
)

// NewCache returns a cache holding up to entries values and maxBytes of
// key+value payload across shards lock domains (shards is rounded up
// to a power of two; both budgets are divided evenly). Cached bodies
// range from ~100 bytes for a single query to megabytes for a
// max-sized batch, so the entry bound alone would leave memory
// effectively unbounded — the byte budget is what actually caps the
// daemon's footprint, and a value too large for its shard's budget is
// simply not cached. entries <= 0 returns nil: a disabled cache every
// method tolerates. maxBytes <= 0 selects cacheMaxBytes (64 MiB).
func NewCache(entries, shards int, maxBytes int64) *Cache {
	if entries <= 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	if maxBytes <= 0 {
		maxBytes = cacheMaxBytes
	}
	n := 1 << bits.Len(uint(shards-1)) // next power of two
	perShard := (entries + n - 1) / n
	bytesPerShard := maxBytes / int64(n)
	if bytesPerShard < 1 {
		bytesPerShard = 1
	}
	c := &Cache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].maxBytes = bytesPerShard
		c.shards[i].m = make(map[string]*cacheEntry, perShard)
	}
	return c
}

// fnv64a hashes key without allocating (FNV-1a).
func fnv64a(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// Get returns the value cached under key, refreshing its recency. The
// returned bytes are shared and immutable — callers must not modify
// them. Zero allocations on both hit and miss.
func (c *Cache) Get(key []byte) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	s := &c.shards[fnv64a(key)&c.mask]
	s.mu.Lock()
	e, ok := s.m[string(key)] // string(key) in a map index does not allocate
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.moveToFront(e)
	v := e.val
	s.mu.Unlock()
	return v, true
}

// Put caches val under key, evicting least-recently-used entries until
// the shard is within both its entry and byte budgets. A value larger
// than the shard's whole byte budget is not cached at all. val is
// retained as-is and must not be mutated afterwards; key is copied.
func (c *Cache) Put(key, val []byte) {
	if c == nil {
		return
	}
	if int64(len(key)+len(val)) > c.shards[0].maxBytes {
		return
	}
	s := &c.shards[fnv64a(key)&c.mask]
	s.mu.Lock()
	if e, ok := s.m[string(key)]; ok {
		s.bytes += int64(len(val) - len(e.val))
		e.val = val
		s.moveToFront(e)
	} else {
		e := &cacheEntry{key: string(key), val: val}
		s.m[e.key] = e
		s.pushFront(e)
		s.bytes += e.size()
	}
	for len(s.m) > s.cap || s.bytes > s.maxBytes {
		victim := s.tail
		s.unlink(victim)
		delete(s.m, victim.key)
		s.bytes -= victim.size()
	}
	s.mu.Unlock()
}

// Flush discards every cached entry. The server calls it on snapshot
// swap: the epoch baked into every key already makes old entries
// unreachable, but without a flush they would keep occupying the
// entry/byte budgets — a warm cache would sit half-dead after each
// reload until LRU churn ground the stale tail out.
func (c *Cache) Flush() {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[string]*cacheEntry, s.cap)
		s.head, s.tail = nil, nil
		s.bytes = 0
		s.mu.Unlock()
	}
}

// Len returns the number of cached entries (for tests and /statsz).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
