// Package cache is a content-addressed store for deterministic trial
// results: the memoization layer behind incremental figure sweeps. The
// harness guarantees a trial's output is fully determined by its inputs
// (experiment config + derived seeds + simulation code), so a result can
// be keyed by a fingerprint of those inputs and replayed instead of
// recomputed — warm figure runs only pay for what changed.
//
// Three layers, in lookup order:
//
//   - Single-flight. Identical in-flight fingerprints share one
//     computation: when two concurrently regenerating figures contain
//     the same sweep (fig12/fig13 share the detection sweep), each trial
//     runs once and every waiter receives the same bytes.
//   - Memory. A bounded LRU of recently used entries, so repeated
//     lookups within a process never touch the disk.
//   - Disk. One checksummed file per entry under Config.Dir, written
//     atomically (temp file + fsync + rename), so results survive across
//     processes and a crash can never leave a half-written entry that
//     parses.
//
// The correctness bar is absolute: the cache either serves the exact
// bytes that were stored or reports a miss. Truncated, bit-flipped, or
// alien-version entries fail validation and fall back to recompute —
// never an error, never wrong bytes. Any config change reaches the
// fingerprint through the caller's canonical key encoding; any
// simulation-semantics change must bump CodeSalt.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"sync"

	"beaconsec/internal/metrics"
)

// CodeSalt versions the simulation code in every fingerprint. Bump it
// whenever a change alters what any cached computation would produce —
// simulation semantics, experiment config interpretation, result
// serialization — so stale entries miss instead of being served. Entries
// under an old salt are simply never addressed again (and age out of the
// LRU; on disk they are inert files).
const CodeSalt = "beaconsec-trials-v2"

// Key is a 32-byte content address: the SHA-256 fingerprint of a
// computation's inputs.
type Key [32]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Fingerprint hashes a salt plus the given parts into a Key. Every part
// is length-prefixed, so distinct part lists can never collide by
// concatenation ("ab","c" vs "a","bc").
func Fingerprint(salt string, parts ...[]byte) Key {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(salt)))
	h.Write(n[:])
	h.Write([]byte(salt))
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Stats counts cache activity. All fields are atomic counters, safe to
// read while the cache is in use; Snapshot copies them into plain
// integers for JSON export.
type Stats struct {
	// Hits counts lookups served without computing: memory, disk, or a
	// shared in-flight computation.
	Hits metrics.Counter
	// Misses counts lookups that ran the computation.
	Misses metrics.Counter
	// DiskHits counts the subset of Hits served from the on-disk store.
	DiskHits metrics.Counter
	// FlightShares counts the subset of Hits that joined another
	// caller's in-flight computation.
	FlightShares metrics.Counter
	// Stores counts successful entry writes (memory insert + disk write
	// attempt).
	Stores metrics.Counter
	// Evictions counts entries dropped from the memory LRU (they remain
	// on disk).
	Evictions metrics.Counter
	// CorruptEntries counts on-disk entries that failed validation
	// (truncated, checksum mismatch, alien format) and were discarded.
	CorruptEntries metrics.Counter
	// WriteErrors counts failed disk writes (the result is still served
	// from memory; the entry is just not persisted).
	WriteErrors metrics.Counter
	// BytesRead / BytesWritten count payload bytes moved to/from disk.
	BytesRead    metrics.Counter
	BytesWritten metrics.Counter
}

// StatsSnapshot is a plain-integer copy of Stats for JSON export.
type StatsSnapshot struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	DiskHits       uint64 `json:"disk_hits"`
	FlightShares   uint64 `json:"flight_shares"`
	Stores         uint64 `json:"stores"`
	Evictions      uint64 `json:"evictions"`
	CorruptEntries uint64 `json:"corrupt_entries"`
	WriteErrors    uint64 `json:"write_errors"`
	BytesRead      uint64 `json:"bytes_read"`
	BytesWritten   uint64 `json:"bytes_written"`
}

// HitRate returns Hits / (Hits + Misses), or 0 with no lookups.
func (s StatsSnapshot) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Config parameterizes a Cache.
type Config struct {
	// Dir is the on-disk store's directory, created on New. Empty
	// disables the disk layer: the cache is memory-only (single-flight
	// and LRU still apply).
	Dir string
	// MaxMemEntries bounds the memory LRU; <= 0 means DefaultMaxMemEntries.
	MaxMemEntries int
}

// DefaultMaxMemEntries is the memory LRU bound when Config leaves it
// zero: generous for any figure sweep (the full evaluation is a few
// thousand trials) while bounding worst-case memory.
const DefaultMaxMemEntries = 8192

// Cache is the store. Safe for concurrent use.
type Cache struct {
	dir        string
	maxEntries int

	mu  sync.Mutex // guards lru + index
	lru *list.List // front = most recent; values are *memEntry
	idx map[Key]*list.Element

	fmu     sync.Mutex // guards flights
	flights map[Key]*flight

	stats Stats
}

type memEntry struct {
	key  Key
	data []byte
}

// flight is one in-progress computation; waiters block on done and then
// read data/err.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// New opens a cache. A non-empty Dir is created (MkdirAll) and probed
// for writability so an unusable location fails here, with a clear
// error, instead of mid-sweep.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxMemEntries <= 0 {
		cfg.MaxMemEntries = DefaultMaxMemEntries
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: create %s: %w", cfg.Dir, err)
		}
		probe, err := os.CreateTemp(cfg.Dir, ".probe-*")
		if err != nil {
			return nil, fmt.Errorf("cache: %s is not writable: %w", cfg.Dir, err)
		}
		probe.Close()
		if err := os.Remove(probe.Name()); err != nil {
			return nil, fmt.Errorf("cache: %s is not writable: %w", cfg.Dir, err)
		}
	}
	return &Cache{
		dir:        cfg.Dir,
		maxEntries: cfg.MaxMemEntries,
		lru:        list.New(),
		idx:        make(map[Key]*list.Element),
		flights:    make(map[Key]*flight),
	}, nil
}

// Stats returns a point-in-time copy of the cache's counters.
func (c *Cache) Stats() StatsSnapshot {
	return StatsSnapshot{
		Hits:           c.stats.Hits.Load(),
		Misses:         c.stats.Misses.Load(),
		DiskHits:       c.stats.DiskHits.Load(),
		FlightShares:   c.stats.FlightShares.Load(),
		Stores:         c.stats.Stores.Load(),
		Evictions:      c.stats.Evictions.Load(),
		CorruptEntries: c.stats.CorruptEntries.Load(),
		WriteErrors:    c.stats.WriteErrors.Load(),
		BytesRead:      c.stats.BytesRead.Load(),
		BytesWritten:   c.stats.BytesWritten.Load(),
	}
}

// Get returns the stored bytes for key, consulting memory then disk.
// Callers must treat the returned slice as immutable.
func (c *Cache) Get(key Key) ([]byte, bool) {
	if data, ok := c.memGet(key); ok {
		c.stats.Hits.Inc()
		return data, true
	}
	if data, ok := c.diskGet(key); ok {
		c.memPut(key, data)
		c.stats.Hits.Inc()
		c.stats.DiskHits.Inc()
		return data, true
	}
	return nil, false
}

// Put stores data under key in memory and (when configured) on disk.
// Disk failures are counted, not returned: the entry still serves from
// memory, and the next cold process recomputes.
func (c *Cache) Put(key Key, data []byte) {
	c.memPut(key, data)
	c.diskPut(key, data)
	c.stats.Stores.Inc()
}

// GetOrCompute returns the bytes stored under key, computing and storing
// them on a miss. Identical concurrent keys are single-flighted: one
// caller computes, the rest wait and share the result (hit=true — they
// did not compute). A compute error is returned to every caller of the
// flight and nothing is stored.
func (c *Cache) GetOrCompute(key Key, compute func() ([]byte, error)) (data []byte, hit bool, err error) {
	if data, ok := c.memGet(key); ok {
		c.stats.Hits.Inc()
		return data, true, nil
	}

	c.fmu.Lock()
	if f, ok := c.flights[key]; ok {
		c.fmu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		c.stats.Hits.Inc()
		c.stats.FlightShares.Inc()
		return f.data, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.fmu.Unlock()
	defer func() {
		f.data, f.err = data, err
		c.fmu.Lock()
		delete(c.flights, key)
		c.fmu.Unlock()
		close(f.done)
	}()

	// Re-check memory: a racing flight may have completed between the
	// first memGet and this flight's registration.
	if cached, ok := c.memGet(key); ok {
		c.stats.Hits.Inc()
		return cached, true, nil
	}
	if cached, ok := c.diskGet(key); ok {
		c.memPut(key, cached)
		c.stats.Hits.Inc()
		c.stats.DiskHits.Inc()
		return cached, true, nil
	}

	c.stats.Misses.Inc()
	computed, cerr := compute()
	if cerr != nil {
		return nil, false, cerr
	}
	c.Put(key, computed)
	return computed, false, nil
}

// memGet looks key up in the LRU, refreshing its recency.
func (c *Cache) memGet(key Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*memEntry).data, true
}

// memPut inserts (or refreshes) key in the LRU, evicting from the back
// past the entry bound.
func (c *Cache) memPut(key Key, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		el.Value.(*memEntry).data = data
		c.lru.MoveToFront(el)
		return
	}
	c.idx[key] = c.lru.PushFront(&memEntry{key: key, data: data})
	for c.lru.Len() > c.maxEntries {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.idx, last.Value.(*memEntry).key)
		c.stats.Evictions.Inc()
	}
}
