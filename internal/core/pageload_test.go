package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"blinktree/internal/latch"
	"blinktree/internal/page"
	"blinktree/internal/storage"
)

// readCountStore counts store reads per page.
type readCountStore struct {
	storage.Store
	mu    sync.Mutex
	reads map[page.PageID]int
}

func (s *readCountStore) Read(id page.PageID) ([]byte, error) {
	s.mu.Lock()
	s.reads[id]++
	s.mu.Unlock()
	return s.Store.Read(id)
}

func (s *readCountStore) count(id page.PageID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads[id]
}

// TestOptStepValidatesBeforeFetch checks that an optimistic descent whose
// route went stale between reading it and fetching the child restarts
// without loading the child: an exclusive owner comes and goes on the
// parent after its route was read, and the step must fail without a store
// read of the (non-resident) child. With a current route the same step
// loads it.
func TestOptStepValidatesBeforeFetch(t *testing.T) {
	store := &readCountStore{Store: storage.NewMemStore(512), reads: map[page.PageID]int{}}
	tr := newTestTree(t, Options{PageSize: 512, Store: store})
	for i := 0; i < 400; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustVerify(t, tr)
	rootID, level := tr.readAnchor()
	if level == 0 {
		t.Fatal("tree too small: the root is a leaf")
	}
	root, err := tr.fetch(rootID)
	if err != nil {
		t.Fatal(err)
	}
	r, v, ok := root.routeView()
	if !ok {
		t.Fatal("no route on the root")
	}
	child := r.children[len(r.children)-1]
	if err := tr.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if dropped, err := tr.pool.DiscardIfUnpinned(child, nil); !dropped || err != nil {
		t.Fatalf("could not evict the child: %v, %v", dropped, err)
	}

	root.latch.Acquire(latch.Exclusive)
	root.latch.Release(latch.Exclusive)
	before := store.count(child)
	if m, ok := tr.stepOpt(root, v, child, nil); ok {
		tr.unpin(m)
		t.Fatal("a step on a stale route succeeded")
	}
	if got := store.count(child); got != before {
		t.Fatalf("a stale step read the child from the store %d time(s)", got-before)
	}
	if tr.pool.Resident(child) {
		t.Fatal("a stale step left the child resident")
	}

	if root, err = tr.fetch(rootID); err != nil {
		t.Fatal(err)
	}
	if _, v, ok = root.routeView(); !ok {
		t.Fatal("no route on the root")
	}
	m, ok := tr.stepOpt(root, v, child, nil)
	if !ok {
		t.Fatal("a step on a current route failed")
	}
	tr.unpin(m)
	if got := store.count(child); got != before+1 {
		t.Fatalf("a current step read the child %d time(s), want 1", got-before)
	}
	if got := tr.PoolStats().Pinned; got != 0 {
		t.Fatalf("%d frames left pinned", got)
	}
}

// TestReloadedLeavesMutate runs every kind of leaf mutation on leaves that
// were just reloaded from the store: with 512 B pages and an 8-page cache
// nearly every access misses, so each overwrite (with a longer value),
// insert, delete, split and consolidation lands on a page whose records
// share one decode arena. A shadow map checks every read and the final
// contents; the deep audit checks the structure and the store.
func TestReloadedLeavesMutate(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, CacheSize: 8, MinFill: 0.4})
	rng := rand.New(rand.NewSource(5))
	shadow := map[string]string{}
	put := func(k, v string) {
		if err := tr.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
		shadow[k] = v
	}
	const n = 1200
	for i := 0; i < n; i++ {
		put(fmt.Sprintf("key-%06d", i*2), fmt.Sprintf("v%d", i))
	}
	splits := tr.Stats().Splits
	for step := 0; step < 6000; step++ {
		k := fmt.Sprintf("key-%06d", rng.Intn(2*n))
		switch op := rng.Intn(10); {
		case op < 4: // overwrite or insert, often longer than before
			put(k, fmt.Sprintf("%s/%d%s", shadow[k], step, bytes.Repeat([]byte{'x'}, rng.Intn(24))))
		case op < 7:
			err := tr.Delete([]byte(k))
			if _, live := shadow[k]; live != (err == nil) {
				t.Fatalf("delete %q: %v, live %v", k, err, live)
			}
			delete(shadow, k)
		default:
			got, err := tr.Get([]byte(k))
			want, live := shadow[k]
			if live != (err == nil) || string(got) != want {
				t.Fatalf("get %q = %q, %v; want %q, live %v", k, got, err, want, live)
			}
		}
		if len(shadow[k]) > 150 { // keep values small enough to share a leaf
			put(k, "short")
		}
		if step%50 == 0 { // what the maintenance workers would do
			tr.DrainTodo()
		}
	}
	// Empty most of the key space so leaves consolidate.
	for i := 0; i < 2*n; i++ {
		if i%16 == 0 {
			continue
		}
		k := fmt.Sprintf("key-%06d", i)
		if _, live := shadow[k]; live {
			if err := tr.Delete([]byte(k)); err != nil {
				t.Fatalf("delete %q: %v", k, err)
			}
			delete(shadow, k)
		}
		if i%50 == 0 {
			tr.DrainTodo()
		}
	}
	tr.DrainTodo()
	s := tr.Stats()
	if s.Splits == splits || s.LeafConsolidated == 0 || tr.PoolStats().Misses == 0 {
		t.Fatalf("workload too tame: splits +%d, leaf consolidations %d, misses %d",
			s.Splits-splits, s.LeafConsolidated, tr.PoolStats().Misses)
	}

	want := make([]string, 0, len(shadow))
	for k := range shadow {
		want = append(want, k)
	}
	sort.Strings(want)
	var got []string
	if err := tr.Scan(nil, nil, func(k, v []byte) bool {
		if shadow[string(k)] != string(v) {
			t.Errorf("scan %q = %q, want %q", k, v, shadow[string(k)])
		}
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(want))
	}
	mustVerify(t, tr)
	if _, err := tr.VerifyDeep(); err != nil {
		t.Fatal(err)
	}
}
