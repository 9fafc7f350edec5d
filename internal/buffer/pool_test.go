package buffer

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blinktree/internal/page"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// testObj is a minimal Object: a page-sized blob with an LSN header.
type testObj struct {
	lsn  wal.LSN
	data byte // fill byte, for identity checks
	mu   sync.Mutex
}

func (o *testObj) PageLSN() wal.LSN {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lsn
}

func (o *testObj) Marshal(pageSize int) ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	buf := make([]byte, pageSize)
	buf[0] = byte(o.lsn)
	buf[1] = o.data
	return buf, nil
}

type testCodec struct {
	loads atomic.Uint64
}

func (c *testCodec) Unmarshal(data []byte) (Object, error) {
	c.loads.Add(1)
	return &testObj{lsn: wal.LSN(data[0]), data: data[1]}, nil
}

func newTestPool(t *testing.T, capacity int) (*Pool, storage.Store, *testCodec) {
	t.Helper()
	store := storage.NewMemStore(128)
	codec := &testCodec{}
	return NewPool(store, nil, codec, capacity), store, codec
}

// allocObj allocates a store page holding a testObj with the given fill.
func allocObj(t *testing.T, p *Pool, store storage.Store, fill byte) page.PageID {
	t.Helper()
	id, err := store.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(id, &testObj{data: fill}); err != nil {
		t.Fatal(err)
	}
	p.Unpin(id, true)
	return id
}

func TestFetchHitReturnsSameObject(t *testing.T) {
	p, store, codec := newTestPool(t, 4)
	id := allocObj(t, p, store, 7)
	a, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("two fetches of a resident page returned different objects")
	}
	if codec.loads.Load() != 0 {
		t.Fatal("resident page was reloaded from store")
	}
	p.Unpin(id, false)
	p.Unpin(id, false)
	s := p.Snapshot()
	if s.Hits != 2 {
		t.Fatalf("hits = %d, want 2", s.Hits)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	p, store, codec := newTestPool(t, 2)
	a := allocObj(t, p, store, 1)
	b := allocObj(t, p, store, 2)
	// Fetching a third page must evict one of the first two and write it
	// back (both are dirty).
	c := allocObj(t, p, store, 3)
	_ = c
	s := p.Snapshot()
	if s.Evictions == 0 || s.WriteBacks == 0 {
		t.Fatalf("stats = %+v, want evictions and writebacks", s)
	}
	// Whichever of a/b was evicted must reload with its data intact.
	for _, id := range []page.PageID{a, b} {
		obj, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		got := obj.(*testObj).data
		want := byte(1)
		if id == b {
			want = 2
		}
		if got != want {
			t.Fatalf("page %d data = %d, want %d", id, got, want)
		}
		p.Unpin(id, false)
	}
	if codec.loads.Load() == 0 {
		t.Fatal("no reload happened despite eviction")
	}
}

func TestPinnedPagesAreNotEvicted(t *testing.T) {
	p, store, _ := newTestPool(t, 2)
	a := allocObj(t, p, store, 1)
	b := allocObj(t, p, store, 2)
	// Pin both.
	if _, err := p.Fetch(a); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fetch(b); err != nil {
		t.Fatal(err)
	}
	// A third page cannot enter: everything is pinned.
	id, _ := store.Allocate()
	if err := p.Insert(id, &testObj{}); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("Insert with all pinned: %v, want ErrPoolFull", err)
	}
	p.Unpin(a, false)
	if err := p.Insert(id, &testObj{}); err != nil {
		t.Fatalf("Insert after unpin: %v", err)
	}
	p.Unpin(id, false)
	p.Unpin(b, false)
}

func TestUnpinUnderflowPanics(t *testing.T) {
	p, store, _ := newTestPool(t, 2)
	id := allocObj(t, p, store, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin did not panic")
		}
	}()
	p.Unpin(id, false)
}

func TestMarkDirtyRequiresPin(t *testing.T) {
	p, store, _ := newTestPool(t, 2)
	id := allocObj(t, p, store, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("MarkDirty of unpinned page did not panic")
		}
	}()
	p.MarkDirty(id)
}

func TestDiscardDropsWithoutWriteBack(t *testing.T) {
	p, store, _ := newTestPool(t, 4)
	id, _ := store.Allocate()
	if err := p.Insert(id, &testObj{data: 9}); err != nil {
		t.Fatal(err)
	}
	p.Discard(id)
	if p.Resident(id) {
		t.Fatal("discarded page still resident")
	}
	if s := p.Snapshot(); s.WriteBacks != 0 {
		t.Fatalf("Discard wrote back: %+v", s)
	}
}

func TestFlushAllPersistsDirtyPages(t *testing.T) {
	p, store, _ := newTestPool(t, 4)
	id := allocObj(t, p, store, 42)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	raw, err := store.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if raw[1] != 42 {
		t.Fatalf("store image byte = %d, want 42", raw[1])
	}
}

func TestWALRuleOnWriteBack(t *testing.T) {
	store := storage.NewMemStore(128)
	dev := wal.NewMemDevice()
	log, err := wal.NewLog(dev)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(store, log, &testCodec{}, 4)

	// Log a record, stamp the page with its LSN, do not flush.
	lsn, err := log.Append(&wal.Record{Type: wal.TBegin, Txn: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := store.Allocate()
	if err := p.Insert(id, &testObj{lsn: lsn, data: 1}); err != nil {
		t.Fatal(err)
	}
	p.Unpin(id, true)
	if log.FlushedLSN() != 0 {
		t.Fatal("log flushed prematurely")
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if log.FlushedLSN() < lsn {
		t.Fatalf("WAL rule violated: page written with FlushedLSN=%d < pageLSN=%d",
			log.FlushedLSN(), lsn)
	}
}

func TestFetchMissingPageFails(t *testing.T) {
	p, _, _ := newTestPool(t, 4)
	if _, err := p.Fetch(999); err == nil {
		t.Fatal("Fetch of unallocated page succeeded")
	}
	// The failed frame must not poison later fetches of other pages.
	if p.Resident(999) {
		t.Fatal("failed frame left resident")
	}
}

func TestConcurrentFetchSingleLoad(t *testing.T) {
	p, store, codec := newTestPool(t, 8)
	id := allocObj(t, p, store, 5)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Force out of cache.
	p2 := NewPool(store, nil, codec, 8)
	codec.loads.Store(0)

	var wg sync.WaitGroup
	objs := make([]Object, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			obj, err := p2.Fetch(id)
			if err != nil {
				t.Error(err)
				return
			}
			objs[i] = obj
		}(i)
	}
	wg.Wait()
	if codec.loads.Load() != 1 {
		t.Fatalf("loads = %d, want 1 (deduplicated)", codec.loads.Load())
	}
	for i := 1; i < 16; i++ {
		if objs[i] != objs[0] {
			t.Fatal("concurrent fetches returned different objects")
		}
	}
	for i := 0; i < 16; i++ {
		p2.Unpin(id, false)
	}
}

func TestConcurrentChurn(t *testing.T) {
	p, store, _ := newTestPool(t, 4)
	var ids []page.PageID
	for i := 0; i < 16; i++ {
		ids = append(ids, allocObj(t, p, store, byte(i)))
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ids[(seed*31+i*7)%len(ids)]
				obj, err := p.Fetch(id)
				if err != nil {
					t.Errorf("fetch %d: %v", id, err)
					return
				}
				to := obj.(*testObj)
				to.mu.Lock()
				want := byte((int(id) - 1) % 16)
				_ = want
				to.mu.Unlock()
				p.Unpin(id, i%3 == 0)
			}
		}(g)
	}
	wg.Wait()
	// Every page must still carry its original fill byte after churn.
	for i, id := range ids {
		obj, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := obj.(*testObj).data; got != byte(i) {
			t.Fatalf("page %d data = %d, want %d", id, got, i)
		}
		p.Unpin(id, false)
	}
}

func TestInsertDuplicateFails(t *testing.T) {
	p, store, _ := newTestPool(t, 4)
	id := allocObj(t, p, store, 1)
	if err := p.Insert(id, &testObj{}); err == nil {
		t.Fatal("duplicate Insert succeeded")
	}
}

// gatedStore signals reading, then holds every Read until release closes.
type gatedStore struct {
	storage.Store
	reading, release chan struct{}
}

func (s *gatedStore) Read(id page.PageID) ([]byte, error) {
	close(s.reading)
	<-s.release
	return s.Store.Read(id)
}

// zeroRejectCodec refuses a zeroed page, as the tree's codec does (bad
// magic), and otherwise decodes like testCodec.
type zeroRejectCodec struct{ testCodec }

func (c *zeroRejectCodec) Unmarshal(data []byte) (Object, error) {
	if data[0] == 0 && data[1] == 0 {
		return nil, errors.New("zeroed page")
	}
	return c.testCodec.Unmarshal(data)
}

// TestInsertWaitsOutStaleLoad: a fetch through a dangling reference is
// loading a freed page when the allocator hands the page out again and
// inserts its new object. Insert must wait for that load to fail rather
// than report the page resident.
func TestInsertWaitsOutStaleLoad(t *testing.T) {
	inner := storage.NewMemStore(128)
	id, err := inner.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.Deallocate(id); err != nil {
		t.Fatal(err)
	}
	gs := &gatedStore{Store: inner, reading: make(chan struct{}), release: make(chan struct{})}
	p := NewPool(gs, nil, &zeroRejectCodec{}, 4)
	fetched := make(chan error, 1)
	go func() {
		_, err := p.Fetch(id)
		fetched <- err
	}()
	<-gs.reading
	if reused, err := inner.Allocate(); err != nil || reused != id {
		t.Fatalf("Allocate = %d, %v; want the freed page %d", reused, err, id)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(gs.release)
	}()
	if err := p.Insert(id, &testObj{data: 9}); err != nil {
		t.Fatalf("Insert during a stale load: %v", err)
	}
	if err := <-fetched; err == nil {
		t.Fatal("stale fetch of a reused page succeeded")
	}
	obj, err := p.Fetch(id)
	if err != nil || obj.(*testObj).data != 9 {
		t.Fatalf("resident object after Insert: %v, %v", obj, err)
	}
	p.Unpin(id, false)
	p.Unpin(id, true)
}

func TestSnapshotCounts(t *testing.T) {
	p, store, _ := newTestPool(t, 4)
	id := allocObj(t, p, store, 1)
	if _, err := p.Fetch(id); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if s.Resident != 1 || s.Pinned != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	p.Unpin(id, false)
	if s := p.Snapshot(); s.Pinned != 0 {
		t.Fatalf("pinned after unpin = %d", s.Pinned)
	}
}

func BenchmarkFetchHit(b *testing.B) {
	store := storage.NewMemStore(128)
	codec := &testCodec{}
	p := NewPool(store, nil, codec, 16)
	id, _ := store.Allocate()
	if err := p.Insert(id, &testObj{data: 1}); err != nil {
		b.Fatal(err)
	}
	p.Unpin(id, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj, err := p.Fetch(id)
		if err != nil {
			b.Fatal(err)
		}
		_ = obj
		p.Unpin(id, false)
	}
}

// imageStore answers every read with one shared page image, so a
// benchmark over it measures the pool and not the store's page map.
type imageStore struct {
	storage.Store
	img []byte
}

func (s imageStore) Read(page.PageID) ([]byte, error) { return s.img, nil }

// BenchmarkFetchMiss makes every fetch a miss that evicts: it cycles in
// order over twice as many pages as the pool holds, so each fetch finds
// its page evicted and must evict another. The pages are clean, so no
// eviction writes back. The clock is O(1) per miss, so ns/op should not
// grow with the capacity.
func BenchmarkFetchMiss(b *testing.B) {
	for _, capacity := range []int{1024, 16384, 131072} {
		b.Run(fmt.Sprintf("frames=%d", capacity), func(b *testing.B) {
			store := imageStore{Store: storage.NewMemStore(128), img: make([]byte, 128)}
			p := NewPool(store, nil, &testCodec{}, capacity)
			pages := 2 * capacity
			fetch := func(i int) {
				id := page.PageID(1 + i%pages)
				if _, err := p.Fetch(id); err != nil {
					b.Fatal(err)
				}
				p.Unpin(id, false)
			}
			for i := 0; i < pages; i++ { // fill the pool and start evicting
				fetch(i)
			}
			misses := p.Snapshot().Misses
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fetch(i)
			}
			b.StopTimer()
			if got := p.Snapshot().Misses - misses; got != uint64(b.N) {
				b.Fatalf("%d misses in %d fetches", got, b.N)
			}
		})
	}
}

// TestClockCompactsInOrder checks the clock's slot array: it never grows
// past twice the capacity however many frames come and go, every resident
// frame sits in it exactly once at the slot it records, and compaction
// keeps the frames' order and the hand on the same next frame.
func TestClockCompactsInOrder(t *testing.T) {
	p, store, _ := newTestPool(t, 4)
	var ids []page.PageID
	for i := 0; i < 20; i++ {
		ids = append(ids, allocObj(t, p, store, byte(i)))
	}
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			if _, err := p.Fetch(id); err != nil {
				t.Fatal(err)
			}
			p.Unpin(id, false)
		}
	}
	if _, err := p.Fetch(ids[0]); err != nil {
		t.Fatal(err)
	}
	p.Discard(ids[0])

	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.clock) > 2*p.capacity {
		t.Fatalf("clock grew to %d slots for %d frames", len(p.clock), p.capacity)
	}
	var order []*frame
	var next *frame // the frame the hand meets next
	for i, f := range p.clock {
		if f == nil {
			continue
		}
		if f.slot != i || p.frames[f.id] != f {
			t.Fatalf("slot %d holds frame %d recording slot %d", i, f.id, f.slot)
		}
		if next == nil && i >= p.hand {
			next = f
		}
		order = append(order, f)
	}
	if len(order) != len(p.frames) {
		t.Fatalf("%d frames in the clock, %d resident", len(order), len(p.frames))
	}
	if next == nil {
		next = order[0]
	}
	p.compactClock()
	if !reflect.DeepEqual(p.clock, order) {
		t.Fatal("compaction reordered the clock")
	}
	if p.clock[p.hand%len(p.clock)] != next {
		t.Fatal("compaction moved the hand to another frame")
	}
}

func ExamplePool() {
	store := storage.NewMemStore(128)
	pool := NewPool(store, nil, &testCodec{}, 8)
	id, _ := store.Allocate()
	_ = pool.Insert(id, &testObj{data: 3})
	pool.Unpin(id, true)
	obj, _ := pool.Fetch(id)
	fmt.Println(obj.(*testObj).data)
	pool.Unpin(id, false)
	// Output: 3
}

// slowObj is a testObj whose Marshal blocks until released, holding the
// frame in stateEvicting (pool mutex dropped) for as long as the test needs.
type slowObj struct {
	testObj
	started chan struct{} // closed when Marshal begins
	release chan struct{} // Marshal returns after this closes
}

func (o *slowObj) Marshal(pageSize int) ([]byte, error) {
	close(o.started)
	<-o.release
	return o.testObj.Marshal(pageSize)
}

// TestConcurrentMissDuringEviction reproduces the duplicate-frame race: a
// miss makes room by evicting, which releases the pool mutex during
// write-back; a second miss for the same page in that window must not
// overwrite the first loader's frame when it resumes. With the bug, the two
// loaders get distinct frames for one page and their unpins cross,
// underflowing the pin count (panic "Unpin of unpinned page").
func TestConcurrentMissDuringEviction(t *testing.T) {
	p, store, _ := newTestPool(t, 2)
	// Two dirty slow-marshal victims fill the pool.
	mkSlow := func(fill byte) (page.PageID, *slowObj) {
		id, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		o := &slowObj{
			testObj: testObj{data: fill},
			started: make(chan struct{}),
			release: make(chan struct{}),
		}
		if err := p.Insert(id, o); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id, true) // dirty: eviction must write back (slowly)
		return id, o
	}
	_, v1 := mkSlow(1)
	_, v2 := mkSlow(2)
	// The contended page: on the store but not resident.
	x, err := store.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Write(x, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}

	// Fetch only; pins are dropped at the end, so the first loader's pin is
	// still outstanding when the second resumes — with the bug the second
	// unpin below underflows.
	fetch := func(done chan error) {
		_, err := p.Fetch(x)
		done <- err
	}
	// Loader A misses x and starts evicting one victim; once its write-back
	// has the mutex dropped, loader B misses x too and evicts the other.
	// Releasing A first lets it finish its load while B is still evicting;
	// B must then adopt A's frame instead of installing its own.
	doneA := make(chan error, 1)
	doneB := make(chan error, 1)
	go fetch(doneA)
	<-v1.started
	go fetch(doneB)
	<-v2.started
	close(v1.release)
	if err := <-doneA; err != nil {
		t.Fatal(err)
	}
	close(v2.release)
	if err := <-doneB; err != nil {
		t.Fatal(err)
	}
	p.Unpin(x, false)
	p.Unpin(x, false)
	s := p.Snapshot()
	if s.Pinned != 0 {
		t.Fatalf("pins leaked: %d pages still pinned", s.Pinned)
	}
}
