package online

import "optcc/internal/core"

// BatchTrier is the batch-aware extension of the scheduler contract: a
// scheduler that can decide several step requests in one critical section.
// TryBatch(ids) must be semantically equivalent to calling Try on each id in
// order — decisions for earlier ids take effect before later ids are
// decided — but an implementation may amortize its synchronization (one
// shard-mutex acquisition for the whole batch instead of one per request).
//
// The ids must belong to distinct transactions (each is necessarily the
// next unexecuted step of its transaction, exactly as in Try). For a
// ConcurrentScheduler, concurrent TryBatch calls are allowed under the same
// contract as Try: batches whose variables live on different shards may be
// offered concurrently. internal/sim guarantees both properties by
// construction: a batch is a chunk of one shard's parked queue, which
// holds at most one outstanding request per user, and it is decided under
// that shard's decision mutex.
type BatchTrier interface {
	TryBatch(ids []core.StepID) []Decision
}

// TryBatch decides a batch of step requests against s, in order: natively
// when s implements BatchTrier, otherwise through the default adapter that
// loops Try. The returned slice is aligned with ids.
func TryBatch(s Scheduler, ids []core.StepID) []Decision {
	if bt, ok := s.(BatchTrier); ok {
		return bt.TryBatch(ids)
	}
	out := make([]Decision, len(ids))
	for i, id := range ids {
		out[i] = s.Try(id)
	}
	return out
}
