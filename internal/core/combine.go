package core

// Hot-leaf operation combining (flat combining ahead of the leaf latch).
//
// Uniform-random workloads spread writers across leaves, but a skewed
// workload funnels many writers onto one leaf, and the paper's latch
// protocol then serializes them: each writer pays a full latch handoff
// (block, wake, promote) and a WAL mutex round trip for one record. The
// combining engine collapses that convoy. A writer that finds a leaf's
// latch contended — or, past the contention threshold, any writer headed
// for that leaf — publishes its operation into a small per-leaf buffer
// instead of queueing on the latch. Whoever next holds the leaf exclusively
// (the "winner": a writer on the normal path, a publisher rescuing itself,
// or an SMO) drains the buffer before releasing: the whole batch is applied
// under that one latch acquisition and logged as one WAL append group
// (wal.Log.AppendBatch), and each parked publisher is handed its individual
// result — LSN, updated/not-found outcome, or a retry verdict.
//
// Retry verdicts preserve the paper's per-operation semantics: an operation
// whose key no longer falls in the leaf's key space (a split moved it
// right), whose leaf died (consolidated, §2.3), or whose record no longer
// fits is NOT applied by the winner; the publisher re-executes it through
// the normal traverse/split path, exactly as if it had arrived after the
// SMO. The winner never splits on behalf of a published operation, so the
// drain adds no SMO surface.
//
// Only non-transactional operations combine: a transactional write must
// interleave its record-lock no-wait protocol and the §2.4 re-latch
// procedure with the leaf latch, which cannot be delegated to a winner
// holding different locks.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/latch"
	"blinktree/internal/obs"
	"blinktree/internal/page"
	"blinktree/internal/wal"
)

// combineSpinBudget is the number of done-checks a parked publisher makes
// (interleaved with try-acquire self-drain attempts and Gosched) before it
// blocks on the leaf latch to rescue itself.
const combineSpinBudget = 128

// combineOp is one published operation and, once done, its result. The
// winner fills the result fields and then sets done; the publisher reads
// them only after observing done, so the atomic bool orders the handoff.
type combineOp struct {
	op  wal.Op // OpInsert (upsert) or OpDelete
	key []byte
	val []byte

	// Result, valid once done is set.
	lsn     wal.LSN
	updated bool  // upsert replaced an existing record
	retry   bool  // not applied: re-execute via the normal path
	err     error // ErrKeyNotFound for a delete of an absent key

	// done is the publisher/winner handoff bit: the winner's Store
	// happens-after its result writes, the publisher's reads happen-after
	// observing true.
	done atomic.Bool
}

// combiner is a leaf's combining buffer: a bounded slice of pending
// operations under a small mutex. Publishes and takes are rare relative to
// the operations they batch, so a mutex (not a lock-free ring) keeps the
// lifecycle trivially correct.
type combiner struct {
	mu      sync.Mutex
	cap     int
	pending []*combineOp
}

// publish appends op, reporting false when the buffer is full (the caller
// then takes the normal path).
func (c *combiner) publish(op *combineOp) bool {
	c.mu.Lock()
	if len(c.pending) >= c.cap {
		c.mu.Unlock()
		return false
	}
	c.pending = append(c.pending, op)
	c.mu.Unlock()
	return true
}

// take removes and returns every pending operation.
func (c *combiner) take() []*combineOp {
	c.mu.Lock()
	ops := c.pending
	c.pending = nil
	c.mu.Unlock()
	return ops
}

// combinerFor returns n's combining buffer, creating it on first use.
func (n *node) combinerFor(capacity int) *combiner {
	if c := n.comb.Load(); c != nil {
		return c
	}
	c := &combiner{cap: capacity}
	if n.comb.CompareAndSwap(nil, c) {
		return c
	}
	return n.comb.Load()
}

// resolve publishes op's result to its publisher.
func (op *combineOp) resolve() { op.done.Store(true) }

// findLeafForCombine descends optimistically (through routing snapshots,
// like traverseOpt) to the leaf that should cover key, returning it pinned
// but UNLATCHED, together with the remembered path. Nothing about the
// returned node is validated — the caller re-checks everything under a
// latch (direct apply) or at drain time (covers/dead checks). ok=false
// means the descent lost a validation race; the caller falls back to the
// normal traversal.
func (t *Tree) findLeafForCombine(key []byte, sp *obs.Span) (*node, []pathEntry, bool) {
	rootID, rootLevel := t.readAnchor()
	n, err := t.fetchSpan(rootID, sp)
	if err != nil {
		return nil, nil, false
	}
	var path []pathEntry
	level := rootLevel
	for level > 0 {
		r, v, ok := n.routeView()
		if !ok || r.dead || r.level != level || t.cmp(key, r.low) < 0 {
			t.unpin(n)
			return nil, nil, false
		}
		var next page.PageID
		if r.high != nil && t.cmp(key, r.high) >= 0 {
			if r.right == 0 {
				t.unpin(n)
				return nil, nil, false
			}
			next = r.right
		} else {
			ci := childIndex(t.cmp, r.keys, key)
			if ci < 0 || ci >= len(r.children) {
				t.unpin(n)
				return nil, nil, false
			}
			next = r.children[ci]
			path = append(path, pathEntry{
				ref:   ref{id: n.id, epoch: r.epoch},
				level: r.level,
				dd:    r.dd,
			})
			level--
		}
		if n, ok = t.stepOpt(n, v, next, sp); !ok {
			return nil, nil, false
		}
	}
	return n, path, true
}

// combinePut is the combining front end for a non-transactional upsert.
// done=false means the combining layer did not handle the operation and the
// caller must run the normal path.
func (t *Tree) combinePut(lp recOpParams, key, val []byte) (lsn wal.LSN, updated, done bool, err error) {
	op := &combineOp{op: wal.OpInsert, key: key, val: val}
	outcome, leaf, path, dx := t.combineAttempt(op, lp.sp)
	switch outcome {
	case combineDirect:
		lsn, updated, err = t.putOnLeaf(leaf, path, dx, lp, key, val)
		return lsn, updated, true, err
	case combineResolved:
		return op.lsn, op.updated, true, op.err
	default:
		return 0, false, false, nil
	}
}

// combineDelete is the combining front end for a non-transactional delete.
func (t *Tree) combineDelete(lp recOpParams, key []byte) (lsn wal.LSN, done bool, err error) {
	op := &combineOp{op: wal.OpDelete, key: key}
	outcome, leaf, path, dx := t.combineAttempt(op, lp.sp)
	switch outcome {
	case combineDirect:
		lsn, err = t.deleteOnLeaf(leaf, path, dx, lp, key)
		return lsn, true, err
	case combineResolved:
		return op.lsn, true, op.err
	default:
		return 0, false, nil
	}
}

// combineOutcome is combineAttempt's verdict.
type combineOutcome uint8

const (
	// combineMiss: not handled; run the normal traversal.
	combineMiss combineOutcome = iota
	// combineDirect: the leaf is held exclusively (pinned); apply directly.
	combineDirect
	// combineResolved: a winner resolved the published op; result is in it.
	combineResolved
)

// combineAttempt routes one operation through the combining layer: an
// optimistic descent to the candidate leaf, then either a direct uncontended
// apply (try-latch won), a publish-and-wait (contention past the threshold),
// or a miss back to the normal path. On combineDirect the returned leaf is
// pinned and exclusively latched, with the optimistic path for SMO hints.
func (t *Tree) combineAttempt(op *combineOp, sp *obs.Span) (combineOutcome, *node, []pathEntry, uint64) {
	dx := t.dx.v.Load()
	leaf, path, ok := t.findLeafForCombine(op.key, sp)
	if !ok {
		return combineMiss, nil, nil, dx
	}
	if !t.combineAlways {
		if leaf.latch.TryAcquire(latch.Update) {
			// Uncontended: validate the optimistic landing under the
			// update latch, then promote and apply in place.
			if !leaf.dead && leaf.isLeaf() && leaf.covers(t.cmp, op.key) {
				pt0 := sp.Now()
				leaf.latch.Promote()
				sp.StageSince(obs.StageLatchX, 0, pt0)
				return combineDirect, leaf, path, dx
			}
			leaf.latch.Release(latch.Update)
			t.unpin(leaf)
			return combineMiss, nil, nil, dx
		}
		if leaf.hot.Add(1) < uint32(t.opts.CombineThreshold) {
			t.unpin(leaf)
			return combineMiss, nil, nil, dx
		}
	}
	if !leaf.combinerFor(t.opts.CombineBuffer).publish(op) {
		t.unpin(leaf)
		return combineMiss, nil, nil, dx
	}
	t.c.combinePublishes.Add(1)
	var w0 time.Time
	if t.obs.MetricsOn() {
		w0 = time.Now()
	}
	t.combineAwait(leaf, op)
	if !w0.IsZero() {
		t.obs.ObserveCombineWait(time.Since(w0))
	}
	t.unpin(leaf)
	if op.retry {
		t.c.combineRetries.Add(1)
		return combineMiss, nil, nil, dx
	}
	return combineResolved, nil, nil, dx
}

// combineAwait parks the publisher until its operation is resolved. The
// publisher is its own rescuer: it spins on the done flag, periodically
// try-acquires the leaf exclusively to self-drain (which resolves its own
// operation, batch size >= 1), and past the spin budget blocks on the latch
// like any writer — the drain in unlatchUnpin runs on every exclusive
// release, so once the publisher holds the latch its operation is resolved.
// The publisher's pin is preserved across self-drains (unlatchUnpin
// consumes one pin, so a replacement is taken first) and released by the
// caller.
func (t *Tree) combineAwait(leaf *node, op *combineOp) {
	spins := 0
	for !op.done.Load() {
		if leaf.latch.TryAcquire(latch.Exclusive) {
			t.selfDrain(leaf)
			continue
		}
		spins++
		if spins > combineSpinBudget {
			leaf.latch.Acquire(latch.Exclusive)
			t.selfDrain(leaf)
			spins = 0
			continue
		}
		runtime.Gosched()
	}
}

// selfDrain releases an exclusive latch through unlatchUnpin (running the
// combiner drain) while keeping one pin for the caller: the frame is
// re-pinned first, and unlatchUnpin consumes that replacement. The fetch
// cannot miss — the caller's existing pin keeps the frame resident.
func (t *Tree) selfDrain(leaf *node) {
	if _, err := t.fetch(leaf.id); err != nil {
		// Unreachable for a pinned frame; release without the extra pin
		// so the latch is never leaked.
		leaf.latch.Release(latch.Exclusive)
		return
	}
	t.unlatchUnpin(leaf, latch.Exclusive, false)
}

// drainCombiner applies every operation published on n. The caller holds
// n's exclusive latch; the return value reports whether the page was
// mutated (the caller marks the frame dirty). Operations the winner cannot
// apply safely under this latch — dead leaf, key outside the fences, record
// does not fit without a split, delete of an absent key — are resolved
// individually (retry or ErrKeyNotFound); the rest are applied in arrival
// order and logged as one WAL append group with consecutive LSNs.
func (t *Tree) drainCombiner(n *node) bool {
	c := n.comb.Load()
	if c == nil {
		return false
	}
	ops := c.take()
	if len(ops) == 0 {
		return false
	}
	// A (nearly) empty drain means contention has subsided: cool the
	// counter so the leaf stops routing writers through the buffer.
	if len(ops) <= 1 {
		n.hot.Store(0)
	}
	if n.dead {
		for _, op := range ops {
			op.retry = true
			op.resolve()
		}
		return false
	}
	var applied []*combineOp
	var builds []func(wal.LSN) *wal.Record
	mutated := false
	for _, op := range ops {
		if !n.covers(t.cmp, op.key) {
			op.retry = true
			op.resolve()
			continue
		}
		pos, found := n.searchLeaf(t.cmp, op.key)
		var logOp wal.Op
		var old []byte
		key := op.key
		switch {
		case op.op == wal.OpDelete && !found:
			op.err = ErrKeyNotFound
			op.resolve()
			continue
		case op.op == wal.OpDelete:
			key = n.c.Keys[pos]
			old = n.removeLeafAt(pos)
			logOp = wal.OpDelete
		case found: // upsert of an existing record
			if n.size()+len(op.val)-len(n.c.Vals[pos]) > t.opts.PageSize {
				op.retry = true
				op.resolve()
				continue
			}
			old = n.c.Vals[pos]
			n.c.Vals[pos] = append([]byte(nil), op.val...)
			op.updated = true
			logOp = wal.OpUpdate
		default: // fresh insert
			if n.size()+page.EntrySize(page.Leaf, len(op.key), len(op.val)) > t.opts.PageSize {
				op.retry = true
				op.resolve()
				continue
			}
			n.insertLeafAt(pos, op.key, op.val)
			logOp = wal.OpInsert
		}
		mutated = true
		t.c.combineDrained.Add(1)
		if t.log == nil {
			op.resolve()
			continue
		}
		applied = append(applied, op)
		builds = append(builds, combineRecOp(n, logOp, key, op.val, old))
	}
	if len(builds) > 0 {
		lsns, err := t.log.AppendBatch(builds)
		for i, op := range applied {
			if i < len(lsns) {
				op.lsn = lsns[i]
			} else {
				op.err = err
			}
			op.resolve()
		}
	}
	if mutated {
		t.c.combineBatches.Add(1)
		t.obs.CombineBatch(len(ops))
		t.noteRightEdge(n)
	}
	return mutated
}

// combineRecOp builds one drained operation's log-record constructor for
// AppendBatch, copying the mutable byte slices now (the build closure runs
// later, under the log mutex) and stamping the leaf's page LSN exactly as
// logRecOp does.
func combineRecOp(leaf *node, op wal.Op, key, val, old []byte) func(wal.LSN) *wal.Record {
	key = append([]byte(nil), key...)
	val = append([]byte(nil), val...)
	old = append([]byte(nil), old...)
	return func(lsn wal.LSN) *wal.Record {
		leaf.c.LSN = uint64(lsn)
		return &wal.Record{
			Type:   wal.TRecOp,
			Op:     op,
			Page:   leaf.id,
			Key:    key,
			Val:    val,
			OldVal: old,
		}
	}
}
