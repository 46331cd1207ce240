package serve

import (
	"context"
	"time"

	"parmp"
)

// request is one query: admitted to a tenant's queue (ctx and resp
// set), or one entry of a client-side batch.
type request struct {
	ctx         context.Context
	key         string // cache key
	start, goal parmp.Config
	k           int
	resp        chan response // buffered 1: respond never blocks
}

// response is a batch worker's answer to one request.
type response struct {
	path      []parmp.Config // shared with the cache: read-only
	ok        bool
	cacheHit  bool
	batchSize int
	rounds    int
	err       error // admission-level failure (timeout, tenant closed)
}

// respond delivers r's answer without blocking; a request whose handler
// already gave up (deadline passed) just drops it.
func (r *request) respond(resp response) {
	select {
	case r.resp <- resp:
	default:
	}
}

// batchWorker drains the tenant's admission queue: it blocks for one
// request, coalesces whatever else arrives within the batch window (up
// to BatchMax), and answers the whole batch against one snapshot.
// Several workers run per tenant, so coalescing never serializes the
// tenant — under light load every batch has size 1 and latency is the
// plain query latency; under heavy load batches fill up and the
// amortized kd/Dijkstra sharing kicks in exactly when it is needed.
func (t *tenant) batchWorker() {
	defer t.pool.wg.Done()
	defer t.workers.Done()
	batch := make([]*request, 0, t.pool.cfg.BatchMax)
	for {
		select {
		case <-t.ctx.Done():
			t.drainPending()
			return
		case first := <-t.pending:
			batch = append(batch[:0], first)
			batch = t.coalesce(batch)
			t.serveBatch(batch)
		}
	}
}

// drainPending answers everything already admitted to the queue with a
// clean shutdown error, so a cancelled tenant (pool close) never leaves
// a request waiting out its own deadline. Requests admitted after the
// drain are covered by the handler's own tenant-context select.
func (t *tenant) drainPending() {
	for {
		select {
		case r := <-t.pending:
			r.respond(response{err: errTenantClosed})
		default:
			return
		}
	}
}

// coalesce tops batch up from the queue until BatchMax or the batch
// window closes. With a non-positive window only already-queued
// requests join.
func (t *tenant) coalesce(batch []*request) []*request {
	max := t.pool.cfg.BatchMax
	window := t.pool.cfg.BatchWindow
	var deadline <-chan time.Time
	if window > 0 && max > 1 {
		timer := time.NewTimer(window)
		defer timer.Stop()
		deadline = timer.C
	}
	for len(batch) < max {
		if deadline == nil {
			select {
			case r := <-t.pending:
				batch = append(batch, r)
			default:
				return batch
			}
		} else {
			select {
			case r := <-t.pending:
				batch = append(batch, r)
			case <-deadline:
				return batch
			}
		}
	}
	return batch
}

// serveBatch answers every request in batch against one snapshot:
// expired requests are failed and the rest go through answer. Every
// answer reports the whole coalesced batch's size.
func (t *tenant) serveBatch(batch []*request) {
	snap := t.eng.Snapshot()
	rounds := snap.Rounds()
	size := len(batch)
	live := make([]*request, 0, len(batch))
	for _, r := range batch {
		if r.ctx.Err() != nil {
			t.rejected.Add(1)
			r.respond(response{err: r.ctx.Err()})
			continue
		}
		live = append(live, r)
	}
	t.answer(snap, live, func(i int, path []parmp.Config, ok bool, group int) {
		live[i].respond(response{path: path, ok: ok, cacheHit: group == 0, batchSize: size, rounds: rounds})
	})
}

// answer resolves qs against snap: the miss path shared by coalesced
// /v1/query batches and client /v1/batch requests. Cache hits answer
// first; misses go through one Snapshot.QueryBatch per distinct k, and
// positive answers are cached under the snapshot's generation (not its
// rounds: a mutate publishes without growing), so a concurrent rollover
// drops rather than poisons them. reply gets query i's answer and the
// size of the k-group that computed it (0 for a cache hit).
func (t *tenant) answer(snap *parmp.Snapshot, qs []*request, reply func(i int, path []parmp.Config, ok bool, group int)) {
	gen := int64(snap.Generation())
	// k is almost always the default, but a mixed batch still answers
	// correctly: one sub-batch per distinct k.
	byK := make(map[int][]int, 1)
	for i, q := range qs {
		if path, ok := t.cache.get(q.key, gen); ok {
			t.cacheHits.Add(1)
			reply(i, path, true, 0)
			continue
		}
		byK[q.k] = append(byK[q.k], i)
	}
	for k, idxs := range byK {
		starts := make([]parmp.Config, len(idxs))
		goals := make([]parmp.Config, len(idxs))
		for j, i := range idxs {
			starts[j], goals[j] = qs[i].start, qs[i].goal
		}
		paths, oks := snap.QueryBatch(starts, goals, k)
		t.batches.Add(1)
		t.batched.Add(int64(len(idxs)))
		for j, i := range idxs {
			if oks[j] {
				t.cache.put(qs[i].key, gen, paths[j])
			}
			reply(i, paths[j], oks[j], len(idxs))
		}
	}
}
