package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentInserts hammers the tree with disjoint insert ranges and
// verifies nothing is lost and every invariant holds.
func TestConcurrentInserts(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, Workers: 2})
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := g*per + i
				if err := tr.Put(key(k), valb(k)); err != nil {
					t.Errorf("put %d: %v", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	mustVerify(t, tr)
	for k := 0; k < goroutines*per; k++ {
		got, err := tr.Get(key(k))
		if err != nil || !bytes.Equal(got, valb(k)) {
			t.Fatalf("get %d: %q, %v", k, got, err)
		}
	}
	if n, _ := tr.Len(); n != goroutines*per {
		t.Fatalf("Len = %d, want %d", n, goroutines*per)
	}
}

// TestConcurrentMixed runs inserts, deletes, gets and scans concurrently
// with background SMO workers, then checks invariants and a model of the
// final expected contents for keys owned by a single writer.
func TestConcurrentMixed(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.4, Workers: 2})
	const writers, per = 6, 400
	var wg sync.WaitGroup
	// Each writer owns a disjoint key range and records its final state.
	finals := make([]map[int][]byte, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			final := make(map[int][]byte)
			for i := 0; i < per; i++ {
				k := g*per + rng.Intn(per)
				switch rng.Intn(3) {
				case 0, 1:
					v := []byte(fmt.Sprintf("v-%d-%d", g, i))
					if err := tr.Put(key(k), v); err != nil {
						t.Errorf("put: %v", err)
						return
					}
					final[k] = v
				case 2:
					err := tr.Delete(key(k))
					if err != nil && !errors.Is(err, ErrKeyNotFound) {
						t.Errorf("delete: %v", err)
						return
					}
					delete(final, k)
				}
			}
			finals[g] = final
		}(g)
	}
	// Two readers scan concurrently.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prev := ""
				err := tr.Scan(nil, nil, func(k, _ []byte) bool {
					if prev != "" && string(k) <= prev {
						t.Errorf("scan order violation: %q after %q", k, prev)
						return false
					}
					prev = string(k)
					return true
				})
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	mustVerify(t, tr)

	want := 0
	for g, final := range finals {
		if final == nil {
			continue
		}
		for k, v := range final {
			got, err := tr.Get(key(k))
			if err != nil || !bytes.Equal(got, v) {
				t.Fatalf("writer %d key %d: got %q (%v), want %q", g, k, got, err, v)
			}
			want++
		}
	}
	if n, _ := tr.Len(); n != want {
		t.Fatalf("Len = %d, want %d", n, want)
	}
}

// TestConcurrentDeleteHeavy drives the node-delete machinery hard: fill,
// then concurrent deleters and readers, with workers consolidating behind
// them.
func TestConcurrentDeleteHeavy(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.45, Workers: 4})
	const n = 4000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.DrainTodo()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 4 {
				if i%5 == 0 {
					continue // survivors
				}
				if err := tr.Delete(key(i)); err != nil && !errors.Is(err, ErrKeyNotFound) {
					t.Errorf("delete %d: %v", i, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := rng.Intn(n)
				_, err := tr.Get(key(k))
				if err != nil && !errors.Is(err, ErrKeyNotFound) {
					t.Errorf("get %d: %v", k, err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	mustVerify(t, tr)
	s := tr.Stats()
	if s.LeafConsolidated == 0 {
		t.Fatalf("no consolidation under concurrent delete load: %+v", s)
	}
	for i := 0; i < n; i += 5 {
		got, err := tr.Get(key(i))
		if err != nil || !bytes.Equal(got, valb(i)) {
			t.Fatalf("survivor %d: %q, %v", i, got, err)
		}
	}
}

// TestConcurrentGrowShrinkCycles repeatedly fills and empties the tree so
// root grows and shrinks race with traffic.
func TestConcurrentGrowShrinkCycles(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.45, Workers: 4})
	const n = 1200
	for cycle := 0; cycle < 3; cycle++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < n; i += 4 {
					if err := tr.Put(key(i), valb(i)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < n; i += 4 {
					if err := tr.Delete(key(i)); err != nil && !errors.Is(err, ErrKeyNotFound) {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		mustVerify(t, tr)
		if cnt, _ := tr.Len(); cnt != 0 {
			t.Fatalf("cycle %d: Len = %d, want 0", cycle, cnt)
		}
	}
}

// TestTinyCacheEviction forces heavy buffer pool churn so nodes round-trip
// through serialization mid-run (D_D persistence across eviction, §4.1.2).
func TestTinyCacheEviction(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, CacheSize: 8, MinFill: 0.4, Workers: 2})
	const n = 1500
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 2 {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	mustVerify(t, tr)
	if tr.PoolStats().Evictions == 0 {
		t.Fatal("tiny cache produced no evictions")
	}
	for i := 1; i < n; i += 2 {
		got, err := tr.Get(key(i))
		if err != nil || !bytes.Equal(got, valb(i)) {
			t.Fatalf("get %d: %q, %v", i, got, err)
		}
	}
}

// TestHotspotContention makes all goroutines fight over few keys, driving
// latch promotion and update-latch serialization.
func TestHotspotContention(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, Workers: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(i % 8)
				switch (g + i) % 3 {
				case 0:
					tr.Put(k, []byte(fmt.Sprintf("g%d-i%d", g, i)))
				case 1:
					tr.Get(k)
				case 2:
					tr.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	mustVerify(t, tr)
}

// TestScanGuaranteeUnderChurn checks what a scan promises (§3.1.4) while
// splits, consolidations and evictions run under it: keys come out strictly
// ascending and inside [start, end), each value names its key, and every
// key of a stable set that no writer touches is returned. Every key is
// loaded; the multiples of 4 are the stable set, and writers delete and
// re-insert only the others, which empties leaves enough to consolidate
// them. Half the scanners use Scan, half step a cursor with Next.
func TestScanGuaranteeUnderChurn(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, CacheSize: 48, MinFill: 0.4, Workers: 2})
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var writers, scanners sync.WaitGroup
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				k := 4*rng.Intn(n/4) + 1 + rng.Intn(3)
				var err error
				if rng.Intn(2) == 0 {
					err = tr.Put(key(k), valb(k))
				} else if err = tr.Delete(key(k)); errors.Is(err, ErrKeyNotFound) {
					err = nil
				}
				if err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		scanners.Add(1)
		go func(g int) {
			defer scanners.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := rng.Intn(n)
				hi := lo + 1 + rng.Intn(n-lo)
				if err := checkScanRange(tr, lo, hi, g == 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	scanners.Wait()
	s := tr.Stats()
	if s.Splits == 0 || s.LeafConsolidated == 0 || tr.PoolStats().Evictions == 0 {
		t.Fatalf("churn too light: %d splits, %d consolidations, %d evictions",
			s.Splits, s.LeafConsolidated, tr.PoolStats().Evictions)
	}
	mustVerify(t, tr)
}

// checkScanRange scans key(lo)..key(hi) and checks it against the stable
// set of multiples of 4, through Scan or, with cursor set, through Next.
func checkScanRange(tr *Tree, lo, hi int, cursor bool) error {
	start, end := key(lo), key(hi)
	want := (lo + 3) / 4 * 4 // next stable key not yet returned
	var prev []byte
	visit := func(k, v []byte) error {
		var i int
		if _, err := fmt.Sscanf(string(k), "key-%06d", &i); err != nil {
			return fmt.Errorf("scan [%s, %s): unexpected key %q", start, end, k)
		}
		switch {
		case bytes.Compare(k, start) < 0 || bytes.Compare(k, end) >= 0:
			return fmt.Errorf("scan [%s, %s) returned %s outside its range", start, end, k)
		case prev != nil && bytes.Compare(k, prev) <= 0:
			return fmt.Errorf("scan [%s, %s) returned %s after %s", start, end, k, prev)
		case !bytes.Equal(v, valb(i)):
			return fmt.Errorf("scan [%s, %s): %s holds %q", start, end, k, v)
		case i%4 == 0 && i != want:
			return fmt.Errorf("scan [%s, %s) skipped stable key %s (next was %s)", start, end, key(want), k)
		}
		if i%4 == 0 {
			want += 4
		}
		prev = k
		return nil
	}
	var err error
	if cursor {
		cur := tr.NewCursor(start, end)
		for err == nil {
			k, v, ok, nerr := cur.Next()
			if nerr != nil || !ok {
				err = nerr
				break
			}
			err = visit(k, v)
		}
	} else {
		serr := tr.Scan(start, end, func(k, v []byte) bool {
			err = visit(k, v)
			return err == nil
		})
		if err == nil {
			err = serr
		}
	}
	if err == nil && want < hi {
		err = fmt.Errorf("scan [%s, %s) ended before stable key %s", start, end, key(want))
	}
	return err
}
