package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// newTestTree returns a small-page tree with manual to-do draining, so
// tests control exactly when lazy SMOs run.
func newTestTree(t testing.TB, opts Options) *Tree {
	t.Helper()
	if opts.PageSize == 0 {
		opts.PageSize = 512
	}
	if opts.Workers == 0 {
		opts.Workers = WorkersNone
	}
	tr, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func key(i int) []byte  { return []byte(fmt.Sprintf("key-%06d", i)) }
func valb(i int) []byte { return []byte(fmt.Sprintf("val-%06d", i)) }

// mustVerify drains lazy SMOs and checks all invariants.
func mustVerify(t testing.TB, tr *Tree) {
	t.Helper()
	tr.DrainTodo()
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetSingle(t *testing.T) {
	tr := newTestTree(t, Options{})
	if err := tr.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get([]byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "1" {
		t.Fatalf("got %q", got)
	}
	mustVerify(t, tr)
}

func TestGetMissing(t *testing.T) {
	tr := newTestTree(t, Options{})
	if _, err := tr.Get([]byte("nope")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Get missing: %v", err)
	}
	ok, err := tr.Has([]byte("nope"))
	if err != nil || ok {
		t.Fatalf("Has missing = %v, %v", ok, err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	tr := newTestTree(t, Options{})
	if err := tr.Put(nil, []byte("v")); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("Put empty key: %v", err)
	}
	if _, err := tr.Get(nil); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("Get empty key: %v", err)
	}
	if err := tr.Delete([]byte{}); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("Delete empty key: %v", err)
	}
}

func TestEntryTooLargeRejected(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	big := make([]byte, 600)
	if err := tr.Put([]byte("k"), big); !errors.Is(err, ErrEntryTooLarge) {
		t.Fatalf("oversized put: %v", err)
	}
}

func TestPutOverwrite(t *testing.T) {
	tr := newTestTree(t, Options{})
	tr.Put([]byte("k"), []byte("v1"))
	tr.Put([]byte("k"), []byte("v2"))
	got, err := tr.Get([]byte("k"))
	if err != nil || string(got) != "v2" {
		t.Fatalf("got %q, %v", got, err)
	}
	n, err := tr.Len()
	if err != nil || n != 1 {
		t.Fatalf("len = %d, %v", n, err)
	}
}

func TestDelete(t *testing.T) {
	tr := newTestTree(t, Options{})
	tr.Put([]byte("k"), []byte("v"))
	if err := tr.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get([]byte("k")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}
	if err := tr.Delete([]byte("k")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestManyInsertsCauseSplitsAndStayCorrect(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if s := tr.Stats(); s.Splits == 0 {
		t.Fatal("no splits after 2000 inserts into 512-byte pages")
	}
	// Every key must be findable even before the to-do queue runs
	// (B-link search correctness with unposted index terms).
	for i := 0; i < n; i += 37 {
		got, err := tr.Get(key(i))
		if err != nil {
			t.Fatalf("get %d before drain: %v", i, err)
		}
		if !bytes.Equal(got, valb(i)) {
			t.Fatalf("get %d = %q", i, got)
		}
	}
	mustVerify(t, tr)
	if tr.Height() == 0 {
		t.Fatal("tree did not grow after draining lazy SMOs")
	}
	for i := 0; i < n; i++ {
		got, err := tr.Get(key(i))
		if err != nil || !bytes.Equal(got, valb(i)) {
			t.Fatalf("get %d after drain: %q, %v", i, got, err)
		}
	}
	if cnt, _ := tr.Len(); cnt != n {
		t.Fatalf("Len = %d, want %d", cnt, n)
	}
}

func TestReverseAndRandomInsertOrders(t *testing.T) {
	orders := map[string]func(n int) []int{
		"reverse": func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = n - 1 - i
			}
			return out
		},
		"random": func(n int) []int {
			out := rand.New(rand.NewSource(7)).Perm(n)
			return out
		},
	}
	for name, gen := range orders {
		t.Run(name, func(t *testing.T) {
			tr := newTestTree(t, Options{PageSize: 512})
			const n = 1500
			for _, i := range gen(n) {
				if err := tr.Put(key(i), valb(i)); err != nil {
					t.Fatal(err)
				}
			}
			mustVerify(t, tr)
			for i := 0; i < n; i++ {
				if _, err := tr.Get(key(i)); err != nil {
					t.Fatalf("get %d: %v", i, err)
				}
			}
		})
	}
}

func TestDeletesTriggerConsolidation(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.4})
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	tr.DrainTodo()
	livBefore := tr.StoreStats().LivePages
	// Delete most records; consolidation should reclaim pages.
	for i := 0; i < n; i++ {
		if i%10 != 0 {
			if err := tr.Delete(key(i)); err != nil {
				t.Fatalf("delete %d: %v", i, err)
			}
		}
	}
	mustVerify(t, tr)
	s := tr.Stats()
	if s.LeafConsolidated == 0 {
		t.Fatalf("no leaf consolidation happened: %+v", s)
	}
	livAfter := tr.StoreStats().LivePages
	if livAfter >= livBefore {
		t.Fatalf("live pages did not shrink: %d -> %d", livBefore, livAfter)
	}
	// Remaining records intact.
	for i := 0; i < n; i += 10 {
		got, err := tr.Get(key(i))
		if err != nil || !bytes.Equal(got, valb(i)) {
			t.Fatalf("survivor %d: %q, %v", i, got, err)
		}
	}
	if cnt, _ := tr.Len(); cnt != n/10 {
		t.Fatalf("Len = %d, want %d", cnt, n/10)
	}
}

func TestDeleteEverythingShrinksTree(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.4})
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	tr.DrainTodo()
	if tr.Height() == 0 {
		t.Fatal("tree did not grow")
	}
	for i := 0; i < n; i++ {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	// Repeated drains let cascaded consolidations and shrinks run.
	for i := 0; i < 10; i++ {
		tr.DrainTodo()
		// Touch the tree so under-utilization is re-discovered.
		tr.Has(key(0))
	}
	mustVerify(t, tr)
	if cnt, _ := tr.Len(); cnt != 0 {
		t.Fatalf("Len = %d, want 0", cnt)
	}
	s := tr.Stats()
	if s.IndexConsolidated == 0 && s.Shrinks == 0 {
		t.Fatalf("no index consolidation or shrink after emptying: %+v", s)
	}
	if s.Shrinks > 0 && tr.DX() == 0 {
		t.Fatal("shrink happened but D_X unchanged")
	}
}

func TestIndexNodeDeleteBumpsDX(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.45})
	const n = 6000 // enough for height >= 2 so index nodes can consolidate
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	tr.DrainTodo()
	if tr.Height() < 2 {
		t.Skipf("height %d < 2; cannot exercise index consolidation", tr.Height())
	}
	for i := 0; i < n; i++ {
		tr.Delete(key(i))
	}
	for i := 0; i < 20; i++ {
		tr.DrainTodo()
		tr.Has(key(0))
	}
	mustVerify(t, tr)
	s := tr.Stats()
	if s.IndexConsolidated == 0 {
		t.Skipf("no index consolidation occurred (stats %+v)", s)
	}
	if tr.DX() == 0 {
		t.Fatal("index nodes consolidated but D_X never incremented")
	}
	// The paper's claim: index deletes are a small minority.
	if s.LeafConsolidated <= s.IndexConsolidated {
		t.Fatalf("leaf consolidations (%d) not dominant over index (%d)",
			s.LeafConsolidated, s.IndexConsolidated)
	}
}

func TestScanRange(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	const n = 500
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	var got []string
	err := tr.Scan(key(100), key(200), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("scan returned %d keys, want 100", len(got))
	}
	if got[0] != string(key(100)) || got[99] != string(key(199)) {
		t.Fatalf("scan bounds wrong: %s .. %s", got[0], got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("scan out of order at %d", i)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := newTestTree(t, Options{})
	for i := 0; i < 50; i++ {
		tr.Put(key(i), valb(i))
	}
	count := 0
	tr.Scan(nil, nil, func(_, _ []byte) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop at %d, want 10", count)
	}
}

// TestScanSlicesOwnedByCaller: slices handed to a Scan callback, and those
// Min and Records return, stay the caller's after later leaves are read,
// the records are overwritten and other scans run. Appending to a kept key
// must not write into its value.
func TestScanSlicesOwnedByCaller(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	const n = 300
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	if leaves, _ := tr.LevelNodes(0); len(leaves) < 3 {
		t.Fatalf("%d leaves: the scan must cross several", len(leaves))
	}
	var keys, vals [][]byte
	err := tr.Scan(nil, nil, func(k, v []byte) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		grown := append(keys[i], '!')
		keys[i] = grown[:len(grown)-1]
	}
	minK, minV, err := tr.Min()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := tr.Records()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), []byte("overwritten")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Scan(nil, nil, func(_, _ []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("scan returned %d records, want %d", len(keys), n)
	}
	for i := range keys {
		if !bytes.Equal(keys[i], key(i)) || !bytes.Equal(vals[i], valb(i)) {
			t.Fatalf("kept record %d changed to %q=%q", i, keys[i], vals[i])
		}
	}
	if !bytes.Equal(minK, key(0)) || !bytes.Equal(minV, valb(0)) {
		t.Fatalf("Min result changed to %q=%q", minK, minV)
	}
	for i := 0; i < n; i++ {
		if v := recs[string(key(i))]; !bytes.Equal(v, valb(i)) {
			t.Fatalf("Records value for %s changed to %q", key(i), v)
		}
	}
}

// TestScanDeleteInCallback: a callback may delete the record it was handed
// (a retention purge), consolidations included; the scan still visits each
// record of the range once, in order.
func TestScanDeleteInCallback(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.4})
	const n = 600
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	err := tr.Scan(key(100), key(500), func(k, v []byte) bool {
		if !bytes.Equal(k, key(100+seen)) || !bytes.Equal(v, valb(100+seen)) {
			t.Fatalf("record %d: got %q=%q", seen, k, v)
		}
		if err := tr.Delete(k); err != nil {
			t.Fatalf("delete %q inside the callback: %v", k, err)
		}
		tr.DrainTodo()
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 400 {
		t.Fatalf("scan visited %d records, want 400", seen)
	}
	if s := tr.Stats(); s.LeafConsolidated == 0 {
		t.Fatal("no leaf consolidated under the scan")
	}
	if got, err := tr.Count(nil, nil); err != nil || got != n-400 {
		t.Fatalf("Count after purge = %d, %v; want %d", got, err, n-400)
	}
	mustVerify(t, tr)
}

// TestScansCountsRecords: Stats.Scans counts records returned, whatever
// the number of leaves or cursor calls it took.
func TestScansCountsRecords(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	for i := 0; i < 500; i++ {
		if err := tr.Put(key(i), valb(i)); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := tr.LevelNodes(0)
	if err != nil {
		t.Fatal(err)
	}
	spanned := 0
	for _, id := range ids {
		info, err := tr.NodeSnapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(info.Keys) > 0 && bytes.Compare(info.Keys[len(info.Keys)-1], key(100)) >= 0 &&
			bytes.Compare(info.Keys[0], key(200)) < 0 {
			spanned++
		}
	}
	if spanned < 3 {
		t.Fatalf("range spans %d leaves, want at least 3", spanned)
	}
	before := tr.Stats().Scans
	n := 0
	if err := tr.Scan(key(100), key(200), func(_, _ []byte) bool { n++; return true }); err != nil || n != 100 {
		t.Fatalf("scan returned %d records, %v", n, err)
	}
	if got := tr.Stats().Scans - before; got != 100 {
		t.Fatalf("100-record Scan added %d to Scans", got)
	}
	before = tr.Stats().Scans
	cur := tr.NewCursor(key(490), nil)
	for {
		_, _, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if got := tr.Stats().Scans - before; got != 10 {
		t.Fatalf("cursor over 10 records added %d to Scans", got)
	}
}

func TestScanEmptyTree(t *testing.T) {
	tr := newTestTree(t, Options{})
	n, err := tr.Count(nil, nil)
	if err != nil || n != 0 {
		t.Fatalf("Count on empty = %d, %v", n, err)
	}
}

func TestCursorSurvivesConcurrentMutation(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, MinFill: 0.4})
	const n = 1000
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	cur := tr.NewCursor(nil, nil)
	seen := 0
	for {
		k, _, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seen++
		// Mutate between fetches: delete keys behind the cursor, insert ahead.
		if seen%10 == 0 {
			var i int
			fmt.Sscanf(string(k), "key-%06d", &i)
			if i > 0 {
				tr.Delete(key(i - 1))
			}
			tr.Put([]byte(fmt.Sprintf("key-%06d-x", i)), []byte("new"))
			tr.DrainTodo()
		}
	}
	if seen < n {
		t.Fatalf("cursor saw %d of %d original keys", seen, n)
	}
	mustVerify(t, tr)
}

func TestCloseIdempotent(t *testing.T) {
	tr := newTestTree(t, Options{})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close: %v", err)
	}
	if _, err := tr.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close: %v", err)
	}
}

func TestLazyPostingRediscovery(t *testing.T) {
	// With no workers and no drains, index terms are never posted; search
	// must still find everything via side traversals, and a drain must
	// repair the index (posts re-discovered during traversals).
	tr := newTestTree(t, Options{PageSize: 512})
	const n = 800
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	s1 := tr.Stats()
	if s1.PostsDone != 0 {
		t.Fatalf("posts ran without workers or drain: %d", s1.PostsDone)
	}
	for i := 0; i < n; i++ {
		if _, err := tr.Get(key(i)); err != nil {
			t.Fatalf("get %d with unposted terms: %v", i, err)
		}
	}
	s2 := tr.Stats()
	if s2.SideTraversals == 0 {
		t.Fatal("no side traversals despite unposted index terms")
	}
	mustVerify(t, tr)
	// After the drain, lookups should not need side traversals.
	before := tr.Stats().SideTraversals
	for i := 0; i < n; i++ {
		tr.Get(key(i))
	}
	after := tr.Stats().SideTraversals
	if after != before {
		t.Fatalf("side traversals still happening after drain: %d -> %d", before, after)
	}
}

func TestNoDeleteSupportVariant(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512, NoDeleteSupport: true})
	const n = 1000
	for i := 0; i < n; i++ {
		tr.Put(key(i), valb(i))
	}
	for i := 0; i < n; i += 2 {
		tr.Delete(key(i)) // record deletes still work
	}
	mustVerify(t, tr)
	s := tr.Stats()
	if s.LeafConsolidated != 0 || s.DeletesEnqueued != 0 {
		t.Fatalf("node deletes ran in NoDeleteSupport mode: %+v", s)
	}
	for i := 1; i < n; i += 2 {
		if _, err := tr.Get(key(i)); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
}

func TestStatsSnapshot(t *testing.T) {
	tr := newTestTree(t, Options{})
	tr.Put([]byte("a"), []byte("1"))
	tr.Get([]byte("a"))
	tr.Delete([]byte("a"))
	s := tr.Stats()
	if s.Inserts != 1 || s.Searches != 1 || s.Deletes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDumpRuns(t *testing.T) {
	tr := newTestTree(t, Options{PageSize: 512})
	for i := 0; i < 300; i++ {
		tr.Put(key(i), valb(i))
	}
	mustVerify(t, tr)
	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty dump")
	}
}
