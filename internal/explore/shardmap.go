package explore

import (
	"sync"

	"repro/internal/status"
)

// memoShards is the shard count of the cross-worker concurrent maps. 64
// shards keep lock contention negligible at any realistic worker count
// while the per-shard maps stay dense.
const memoShards = 64

// shardedMap is a 64-way sharded concurrent map keyed by status identity.
// It backs the parallel counting memo (V = [2]int64 subtree tallies).
// Values must be insert-deterministic or idempotent
// under races: two workers inserting the same key must be content to keep
// either value.
type shardedMap[V any] struct {
	shards [memoShards]mapShard[V]
}

type mapShard[V any] struct {
	mu sync.Mutex
	m  map[status.MapKey]V
	_  [40]byte // pad to a cache line so neighbouring locks don't false-share
}

func newShardedMap[V any]() *shardedMap[V] {
	s := &shardedMap[V]{}
	for i := range s.shards {
		s.shards[i].m = map[status.MapKey]V{}
	}
	return s
}

func (s *shardedMap[V]) get(k status.MapKey) (V, bool) {
	sh := &s.shards[k.Hash()%memoShards]
	sh.mu.Lock()
	v, ok := sh.m[k]
	sh.mu.Unlock()
	return v, ok
}

func (s *shardedMap[V]) put(k status.MapKey, v V) {
	sh := &s.shards[k.Hash()%memoShards]
	sh.mu.Lock()
	sh.m[k] = v
	sh.mu.Unlock()
}

// getOrPut returns the value under k, creating it with mk (under the
// shard lock, so exactly one creator wins a race) when absent. created
// reports whether mk ran — the caller that created a value owns its
// one-time initialisation duties.
func (s *shardedMap[V]) getOrPut(k status.MapKey, mk func() V) (v V, created bool) {
	sh := &s.shards[k.Hash()%memoShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.m[k]; ok {
		return v, false
	}
	v = mk()
	sh.m[k] = v
	return v, true
}

// sharedMemo is the concurrent (status → counts) memo parallel counting
// shares across workers when MergeStatuses is on. A status's subtree tally
// is deterministic, so two workers racing on the same key write the same
// value and the memo never needs versioning — only shard-level mutexes.
type sharedMemo = shardedMap[[2]int64]

func newSharedMemo() *sharedMemo { return newShardedMap[[2]int64]() }
