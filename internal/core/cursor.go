package core

import (
	"math"
	"math/bits"

	"blinktree/internal/latch"
	"blinktree/internal/obs"
)

// Cursor iterates records in key order without holding latches between
// fetches (§3.1.4: "we cannot maintain page latches continuously on the
// leaf nodes in the range"). It remembers the path down the tree and uses
// the re-latch procedure to resume; if delete state shows the remembered
// nodes may be gone, it falls back to a fresh traversal — the cursor never
// aborts, it just pays a re-traverse.
//
// Every fetch goes through fill, which copies the next records of one leaf
// under a single Shared latch. Next asks for one record, Scan for the rest
// of the leaf, so a scan re-latches once per leaf rather than per record.
type Cursor struct {
	t *Tree

	// lastKey is the cursor's own copy of the largest key already returned
	// (the start key before the first return). The cursor is positioned
	// strictly after it once started, at or after it before.
	lastKey []byte
	end     []byte // exclusive upper bound; nil = +inf
	started bool
	done    bool

	path []pathEntry
	dx   uint64

	// recs is the batch the last fill produced. The headers are reused;
	// the bytes they point at are a fresh arena per fill that the caller
	// keeps.
	recs []record

	// sp is the owning scan's span (nil when unsampled): one span covers
	// the whole scan, accumulating positioning and side-step stages across
	// fills.
	sp *obs.Span
}

// record is one key/value pair of a cursor batch.
type record struct{ key, val []byte }

// NewCursor returns a cursor over [start, end); end nil means +inf, start
// nil or empty means the smallest key.
func (t *Tree) NewCursor(start, end []byte) *Cursor {
	c := &Cursor{t: t, end: end}
	if len(start) > 0 {
		c.lastKey = append([]byte(nil), start...)
	}
	return c
}

// Next returns the next record in order, or ok=false at the end of the
// range. Key and value belong to the caller.
func (c *Cursor) Next() (key, val []byte, ok bool, err error) {
	if err := c.fill(1); err != nil {
		return nil, nil, false, err
	}
	if len(c.recs) == 0 {
		return nil, nil, false, nil
	}
	c.t.c.scans.Add(1)
	r := c.recs[0]
	return r.key, r.val, true, nil
}

// fill replaces c.recs with up to limit records that follow the cursor's
// progress, all from one leaf: the first leaf, reached through the
// remembered path and then side pointers, that holds such a record. They
// are copied under that leaf's one Shared latch into a single arena
// allocated for this call, and the latch is released before fill returns.
// An empty batch means the range is exhausted.
func (c *Cursor) fill(limit int) error {
	c.recs = c.recs[:0]
	if c.done {
		return nil
	}
	if err := c.t.opBegin(); err != nil {
		return err
	}
	defer c.t.opEnd()

	from := c.lastKey
	if from == nil {
		from = []byte{} // smallest
	}
	leaf, err := c.position(from)
	if err != nil {
		return err
	}
	cmp := c.t.cmp
	seek := from // nil once a side step moved past every key seen
	for {
		keys, vals := leaf.c.Keys, leaf.c.Vals
		lo := 0
		if len(seek) > 0 {
			i, found := leaf.searchLeaf(cmp, seek)
			lo = i
			if found && c.started {
				lo = i + 1 // strictly after the already-returned key
			}
		}
		hi := len(keys)
		if hi-lo > limit {
			hi = lo + limit
		}
		atEnd := false
		if c.end != nil {
			if j := lo + lowerBound(cmp, keys[lo:hi], c.end); j < hi {
				hi, atEnd = j, true
			}
		}
		if lo < hi {
			c.copyOut(keys[lo:hi], vals[lo:hi])
			c.lastKey = append(c.lastKey[:0], keys[hi-1]...)
			c.started = true
			c.dx = c.t.dx.v.Load()
			c.done = atEnd
			c.t.unlatchUnpin(leaf, latch.Shared, false)
			return nil
		}
		// Nothing left here: stop at the range end or the last leaf,
		// otherwise follow the side pointer (latch coupled).
		sib := leaf.c.Right
		if atEnd || sib == 0 || (c.end != nil && leaf.c.High != nil && cmp(leaf.c.High, c.end) >= 0) {
			c.t.unlatchUnpin(leaf, latch.Shared, false)
			c.done = true
			return nil
		}
		q, perr := c.t.pinLatchSpan(sib, latch.Shared, c.sp)
		c.t.unlatchUnpin(leaf, latch.Shared, false)
		if perr != nil || q.dead {
			if perr == nil {
				c.t.unlatchUnpin(q, latch.Shared, false)
			}
			// Rare: restart positioning from the cursor's progress.
			if leaf, err = c.freshTraverse(from); err != nil {
				return err
			}
			seek = from
			continue
		}
		leaf = q
		seek = nil // every key in the sibling is above anything seen
	}
}

// copyOut appends keys[i]/vals[i] to c.recs, copied into one new arena.
// Each sub-slice is capacity-clipped so a caller appending to one record
// cannot overwrite the next.
//
// The arena's capacity is rounded up to a power of two. A fill's arena is
// soon garbage, while a cached page's decode arena (page.Unmarshal) lives
// as long as the page stays in the pool, and its size falls anywhere
// between powers of two. Sharing size classes mixed the two in the same
// heap spans, and after a collection one live page arena kept a span of
// dead fills in use: on a scan-heavy, larger-than-cache tree the heap
// after GC stayed about 15% higher with exact-size fill arenas.
func (c *Cursor) copyOut(keys, vals [][]byte) {
	size := 0
	for i := range keys {
		size += len(keys[i]) + len(vals[i])
	}
	if cap(c.recs) < len(keys) {
		c.recs = make([]record, 0, len(keys))
	}
	arena := make([]byte, size, 1<<bits.Len(uint(size)))
	off := 0
	for i := range keys {
		kEnd := off + copy(arena[off:], keys[i])
		vEnd := kEnd + copy(arena[kEnd:], vals[i])
		c.recs = append(c.recs, record{key: arena[off:kEnd:kEnd], val: arena[kEnd:vEnd:vEnd]})
		off = vEnd
	}
}

// position re-latches the leaf covering seek, preferring the remembered
// path (re-latch, §2.4 case 2) and falling back to a fresh traversal when
// delete state invalidated it.
func (c *Cursor) position(seek []byte) (*node, error) {
	if c.path != nil {
		leaf, path, err := c.t.relatch(c.path, seek, c.dx, latch.Shared, false)
		if err == nil {
			c.path = path
			return leaf, nil
		}
		// Delete state changed: the remembered path is worthless, not the
		// cursor. Re-traverse.
	}
	return c.freshTraverse(seek)
}

func (c *Cursor) freshTraverse(seek []byte) (*node, error) {
	dx := c.t.dx.v.Load()
	leaf, path, err := c.t.traverseRead(traverseOpts{key: seek, intent: latch.Shared, dx: dx, sp: c.sp})
	if err != nil {
		return nil, err
	}
	c.path = path
	c.dx = dx
	return leaf, nil
}

// Seek repositions the cursor so the next Next returns the first record
// with key >= target (still bounded by the cursor's end). Seeking backward
// is allowed.
func (c *Cursor) Seek(target []byte) {
	c.done = false
	c.started = false
	c.lastKey = append(c.lastKey[:0], target...)
	// The remembered path stays: re-latch will ride it if still valid.
}

// Scan calls fn for each record in [start, end) in key order; fn returning
// false stops the scan. Records are fetched a leaf at a time and delivered
// with no latch held, so fn may keep the slices and may mutate the tree.
func (t *Tree) Scan(start, end []byte, fn func(key, val []byte) bool) error {
	t0, sp := t.obsBegin(obs.OpScan)
	defer t.obsEnd(obs.OpScan, t0, sp)
	cur := t.NewCursor(start, end)
	cur.sp = sp
	for {
		if err := cur.fill(math.MaxInt); err != nil {
			return err
		}
		if len(cur.recs) == 0 {
			return nil
		}
		for i, r := range cur.recs {
			if !fn(r.key, r.val) {
				t.c.scans.Add(uint64(i + 1))
				return nil
			}
		}
		t.c.scans.Add(uint64(len(cur.recs)))
	}
}

// Count returns the number of records in [start, end).
func (t *Tree) Count(start, end []byte) (int, error) {
	n := 0
	err := t.Scan(start, end, func(_, _ []byte) bool { n++; return true })
	return n, err
}
