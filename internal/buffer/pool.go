// Package buffer implements the buffer pool: an object cache over a page
// store with pinning, clock eviction and write-ahead-log-rule enforcement.
//
// The pool caches deserialized node objects rather than raw page frames: the
// tree pins an object, latches it, works on it, and unpins it. Eviction only
// considers unpinned objects, so a latch can never outlive its node's
// residency. Before a dirty page is written back, the log is flushed up to
// the page's LSN (the WAL rule).
//
// The paper leans on the cache in two places: latch coupling is cheap
// because "most internal nodes are in the database's main memory cache"
// (§2.4), and D_D lives inside parent-of-leaf nodes so it persists across
// cache eviction (§4.1.2) — which is why eviction must marshal the node
// including its D_D counter.
package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/page"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// Object is a cacheable, serializable page object. The tree's node type
// implements it.
type Object interface {
	// PageLSN returns the LSN of the last logged change to this page; the
	// pool flushes the log up to it before write-back.
	PageLSN() wal.LSN
	// Marshal serializes the object into exactly pageSize bytes.
	Marshal(pageSize int) ([]byte, error)
}

// Codec deserializes page images into Objects.
type Codec interface {
	Unmarshal(data []byte) (Object, error)
}

// Errors returned by the pool.
var (
	// ErrPoolFull means every frame stayed pinned for pinWait, so nothing
	// could be evicted.
	ErrPoolFull = errors.New("buffer: all frames pinned")
)

// pinWait bounds how long a miss waits for some frame to be unpinned when
// every frame is pinned. Callers pin for one short step, so a pool that is
// full only because concurrent callers overlap frees a frame well within
// it; a pool that stays full is smaller than the pins its callers hold at
// once, and waiting longer would not help.
const pinWait = 10 * time.Millisecond

type frameState uint8

const (
	stateLoading frameState = iota
	stateReady
	stateEvicting
	stateFailed
)

// frame is one cached object.
type frame struct {
	id    page.PageID
	slot  int // index in Pool.clock; -1 once removed from it
	state frameState
	obj   Object
	err   error // load error when stateFailed
	pins  int
	dirty bool
	ref   bool // clock reference bit
}

// Stats counts pool activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	WriteBacks uint64
	Resident   int
	Pinned     int
}

// Pool is the buffer pool. All methods are safe for concurrent use.
type Pool struct {
	store    storage.Store
	log      *wal.Log // may be nil: volatile configurations skip the WAL rule
	codec    Codec
	capacity int

	mu     sync.Mutex
	cond   *sync.Cond
	frames map[page.PageID]*frame
	// clock is the eviction scan order, in insertion order. A removed
	// frame leaves a nil slot (see addToClock), so removal is O(1).
	clock []*frame
	hand  int

	hits       atomic.Uint64
	misses     atomic.Uint64
	evictions  atomic.Uint64
	writeBacks atomic.Uint64

	// obs, when set, is told how long page loads and write-backs take.
	// Set once (SetObserver) before the pool sees traffic.
	obs Observer
}

// Observer receives page I/O latencies. *obs.Registry implements it.
type Observer interface {
	PageLoad(d time.Duration)
	WriteBack(d time.Duration)
}

// SetObserver installs o as the pool's I/O observer. It must be called
// before the pool is shared between goroutines.
func (p *Pool) SetObserver(o Observer) { p.obs = o }

// NewPool creates a pool of at most capacity objects over store. log may be
// nil when no write-ahead logging is configured.
func NewPool(store storage.Store, log *wal.Log, codec Codec, capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	p := &Pool{
		store:    store,
		log:      log,
		codec:    codec,
		capacity: capacity,
		frames:   make(map[page.PageID]*frame, capacity),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Fetch pins the object for id, loading it from the store if absent. The
// caller must Unpin when done.
func (p *Pool) Fetch(id page.PageID) (Object, error) {
	obj, _, err := p.FetchMiss(id)
	return obj, err
}

// FetchMiss is Fetch with a miss report: the bool is true when this call
// loaded the object from the store (a pool miss) rather than finding it
// resident. Span tracing uses it to split fetch time into buffer-hit vs
// page-load stages without a second map lookup.
func (p *Pool) FetchMiss(id page.PageID) (Object, bool, error) {
	p.mu.Lock()
	for {
		f, ok := p.frames[id]
		if ok {
			switch f.state {
			case stateReady:
				f.pins++
				f.ref = true
				p.mu.Unlock()
				p.hits.Add(1)
				return f.obj, false, nil
			case stateLoading, stateEvicting:
				// Someone else is transitioning this frame; wait and retry.
				p.cond.Wait()
			case stateFailed:
				err := f.err
				p.mu.Unlock()
				return nil, false, err
			}
			continue
		}
		// Miss: make room, then claim a loading frame. makeRoomLocked can
		// release the mutex during eviction write-back, so another goroutine
		// may install a frame for this id in the window; re-check and defer
		// to it rather than overwriting its frame (which would split the
		// page's pin accounting across two frames).
		if err := p.makeRoomLocked(); err != nil {
			p.mu.Unlock()
			return nil, false, err
		}
		if _, ok := p.frames[id]; !ok {
			break
		}
	}
	f := &frame{id: id, state: stateLoading, pins: 1, ref: true}
	p.frames[id] = f
	p.addToClock(f)
	p.mu.Unlock()
	p.misses.Add(1)

	var t0 time.Time
	if p.obs != nil {
		t0 = time.Now()
	}
	data, err := p.store.Read(id)
	var obj Object
	if err == nil {
		obj, err = p.codec.Unmarshal(data)
	}
	if p.obs != nil {
		p.obs.PageLoad(time.Since(t0))
	}

	p.mu.Lock()
	if err != nil {
		f.state = stateFailed
		f.err = err
		f.pins = 0
		delete(p.frames, id)
		p.removeFromClock(f)
		p.cond.Broadcast()
		p.mu.Unlock()
		return nil, true, err
	}
	f.obj = obj
	f.state = stateReady
	p.cond.Broadcast()
	p.mu.Unlock()
	return obj, true, nil
}

// Insert registers a freshly allocated page's object in the pool, pinned and
// dirty. The page must already be allocated in the store.
//
// A fetch through a dangling reference can race the page's reuse: it
// installs a loading frame for the freed id, and its read then fails
// because the page is free or freshly zeroed by the allocation, which
// drops the frame. Insert waits such a load out rather than reporting the
// page resident.
func (p *Pool) Insert(id page.PageID, obj Object) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if f, ok := p.frames[id]; ok {
			if f.state == stateLoading {
				p.cond.Wait()
				continue
			}
			return fmt.Errorf("buffer: Insert of resident page %d", id)
		}
		// makeRoomLocked can release the mutex mid-eviction; check again
		// before installing so a concurrently loaded frame is never
		// overwritten.
		if err := p.makeRoomLocked(); err != nil {
			return err
		}
		if _, ok := p.frames[id]; !ok {
			break
		}
	}
	f := &frame{id: id, state: stateReady, obj: obj, pins: 1, dirty: true, ref: true}
	p.frames[id] = f
	p.addToClock(f)
	return nil
}

// Unpin releases one pin. If dirty is true the object is marked modified and
// will be written back before eviction.
func (p *Pool) Unpin(id page.PageID, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok || f.pins <= 0 {
		panic(fmt.Sprintf("buffer: Unpin of unpinned page %d", id))
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
	if f.pins == 0 {
		p.cond.Broadcast()
	}
}

// MarkDirty flags a pinned object as modified.
func (p *Pool) MarkDirty(id page.PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok && f.pins > 0 {
		f.dirty = true
		return
	}
	panic(fmt.Sprintf("buffer: MarkDirty of unpinned page %d", id))
}

// Discard drops a page from the pool without write-back, for pages being
// deallocated. The caller must hold the only pin.
func (p *Pool) Discard(id page.PageID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return
	}
	if f.pins > 1 {
		panic(fmt.Sprintf("buffer: Discard of page %d with %d pins", id, f.pins))
	}
	delete(p.frames, id)
	p.removeFromClock(f)
	p.cond.Broadcast()
}

// DiscardIfUnpinned removes id's frame without write-back if no pins are
// outstanding, then runs release (typically the store deallocation) while
// still holding the pool mutex, so a concurrent Fetch cannot reload the
// page's stale image between frame removal and deallocation. It returns
// false (and does not call release) if the frame is pinned; the caller
// retries later. A non-resident page is discarded trivially.
func (p *Pool) DiscardIfUnpinned(id page.PageID, release func() error) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
		if f.pins > 0 || f.state != stateReady {
			return false, nil
		}
		delete(p.frames, id)
		p.removeFromClock(f)
		p.cond.Broadcast()
	}
	if release == nil {
		return true, nil
	}
	return true, release()
}

// makeRoomLocked evicts clean or dirty unpinned frames until there is room
// for one more, waiting up to pinWait for an unpin while every frame is
// pinned. Caller holds p.mu.
func (p *Pool) makeRoomLocked() error {
	var deadline time.Time
	for len(p.frames) >= p.capacity {
		victim := p.pickVictimLocked()
		if victim == nil {
			if deadline.IsZero() {
				deadline = time.Now().Add(pinWait)
				wake := time.AfterFunc(pinWait, func() {
					p.mu.Lock()
					p.cond.Broadcast()
					p.mu.Unlock()
				})
				defer wake.Stop()
			} else if !time.Now().Before(deadline) {
				return ErrPoolFull
			}
			p.cond.Wait()
			continue
		}
		if err := p.evictLocked(victim); err != nil {
			return err
		}
	}
	return nil
}

// pickVictimLocked runs the clock hand over unpinned ready frames.
func (p *Pool) pickVictimLocked() *frame {
	// Two sweeps: the first clears reference bits, the second takes the
	// first unpinned frame.
	for sweep := 0; sweep < 2*len(p.clock); sweep++ {
		if p.hand >= len(p.clock) {
			p.hand = 0
		}
		f := p.clock[p.hand]
		p.hand++
		if f == nil || f.state != stateReady || f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		return f
	}
	return nil
}

// evictLocked writes back a dirty victim (honoring the WAL rule) and removes
// it. Caller holds p.mu; the mutex is released around the write-back I/O,
// and only then: a clean victim is dropped without releasing it.
func (p *Pool) evictLocked(f *frame) error {
	if f.dirty {
		f.state = stateEvicting
		p.mu.Unlock()
		err := p.writeBack(f.id, f.obj)
		p.mu.Lock()
		if err != nil {
			f.state = stateReady
			p.cond.Broadcast()
			return err
		}
	}
	delete(p.frames, f.id)
	p.removeFromClock(f)
	p.evictions.Add(1)
	p.cond.Broadcast()
	return nil
}

// writeBack marshals and writes one object, flushing the log first.
func (p *Pool) writeBack(id page.PageID, obj Object) error {
	var t0 time.Time
	if p.obs != nil {
		t0 = time.Now()
		defer func() { p.obs.WriteBack(time.Since(t0)) }()
	}
	if p.log != nil {
		if err := p.log.Flush(obj.PageLSN()); err != nil {
			return err
		}
	}
	data, err := obj.Marshal(p.store.PageSize())
	if err != nil {
		return err
	}
	if err := p.store.Write(id, data); err != nil {
		return err
	}
	p.writeBacks.Add(1)
	return nil
}

// addToClock appends f to the clock. Caller holds p.mu.
//
// Removed frames leave nil slots. At most capacity frames are resident,
// so once the slice reaches twice the capacity at least half of it is nil,
// and it is compacted in order: amortized O(1) per insertion. Appending at
// the end and compacting in order keeps the order in which the hand meets
// frames exactly what it was when every removal shifted the slice. Reusing
// a removed frame's slot instead put each new frame just behind the hand,
// which cost about 4% more misses on a scan-heavy larger-than-cache tree.
func (p *Pool) addToClock(f *frame) {
	if len(p.clock) >= 2*p.capacity {
		p.compactClock()
	}
	f.slot = len(p.clock)
	p.clock = append(p.clock, f)
}

// compactClock drops the nil slots, keeping the frames' order and the
// hand on the same next frame. Caller holds p.mu.
func (p *Pool) compactClock() {
	n, hand := 0, 0
	for i, f := range p.clock {
		if i == p.hand {
			hand = n
		}
		if f != nil {
			f.slot = n
			p.clock[n] = f
			n++
		}
	}
	clear(p.clock[n:])
	p.clock = p.clock[:n]
	p.hand = hand
}

// removeFromClock empties f's clock slot; removing a frame twice is a
// no-op. Caller holds p.mu.
func (p *Pool) removeFromClock(f *frame) {
	if f.slot < 0 {
		return
	}
	p.clock[f.slot] = nil
	f.slot = -1
}

// FlushAll writes back every dirty resident page (pinned or not) without
// evicting. Used by checkpoints; the caller must ensure no page is being
// modified concurrently (the tree quiesces or holds latches).
func (p *Pool) FlushAll() error {
	p.mu.Lock()
	var dirty []*frame
	for _, f := range p.frames {
		if f.state == stateReady && f.dirty {
			dirty = append(dirty, f)
		}
	}
	p.mu.Unlock()
	for _, f := range dirty {
		if err := p.writeBack(f.id, f.obj); err != nil {
			return err
		}
		p.mu.Lock()
		f.dirty = false
		p.mu.Unlock()
	}
	return nil
}

// Resident reports whether id is currently cached (any state).
func (p *Pool) Resident(id page.PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.frames[id]
	return ok
}

// Snapshot returns current pool statistics.
func (p *Pool) Snapshot() Stats {
	p.mu.Lock()
	pinned := 0
	for _, f := range p.frames {
		if f.pins > 0 {
			pinned++
		}
	}
	resident := len(p.frames)
	p.mu.Unlock()
	return Stats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		Evictions:  p.evictions.Load(),
		WriteBacks: p.writeBacks.Load(),
		Resident:   resident,
		Pinned:     pinned,
	}
}
