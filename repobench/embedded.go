package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"blinktree/internal/core"
	"blinktree/internal/obs"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

const pageSize = 4096

// embedded drives a core.Tree in this process. File-backed trees keep
// pages.db and wal.log in dir.
type embedded struct {
	sp    *spec
	dir   string
	tree  *core.Tree
	store storage.Store
	dev   wal.Device
}

// openEmbedded opens a tree for sp and bulk-loads it. With io non-nil the
// store and log device are wrapped in timing decorators.
func openEmbedded(sp *spec, dir string, io *ioSpans, cfg *obs.Config) (*embedded, error) {
	e := &embedded{sp: sp, dir: dir}
	if err := e.open(io, cfg); err != nil {
		return nil, err
	}
	if err := e.tree.BulkLoadParallel(loadStream(sp.keys), fill, clients); err != nil {
		e.close()
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	return e, nil
}

func (e *embedded) open(io *ioSpans, cfg *obs.Config) error {
	opts := core.Options{PageSize: pageSize, CacheSize: e.sp.cacheSize, Observability: cfg}
	if e.sp.fileBacked {
		fs, err := storage.OpenFileStore(filepath.Join(e.dir, "pages.db"), pageSize)
		if err != nil {
			return err
		}
		fd, err := wal.OpenFileDevice(filepath.Join(e.dir, "wal.log"))
		if err != nil {
			fs.Close()
			return err
		}
		e.store, e.dev = fs, fd
		opts.Durability = wal.DurSync
	} else {
		e.store = storage.NewMemStore(pageSize)
	}
	opts.Store, opts.LogDevice = e.store, e.dev
	if io != nil {
		opts.Store = &tracedStore{Store: e.store, spans: io}
		if e.dev != nil {
			opts.LogDevice = &tracedDevice{Device: e.dev, spans: io}
		}
	}
	t, err := core.New(opts)
	if err != nil {
		e.closeFiles()
		return fmt.Errorf("open tree: %w", err)
	}
	e.tree = t
	return nil
}

func (e *embedded) closeFiles() error {
	err := e.store.Close()
	if e.dev != nil {
		if derr := e.dev.Close(); err == nil {
			err = derr
		}
	}
	return err
}

func (e *embedded) close() error {
	err := e.tree.Close()
	if cerr := e.closeFiles(); err == nil {
		err = cerr
	}
	return err
}

func (e *embedded) snap() snapshot {
	return takeSnapshot(e.tree.Snapshot(), e.dir, e.sp.fileBacked)
}

func (e *embedded) treeSpans() []obs.OpTrace { return e.tree.Spans() }

// client is one closed-loop caller's state.
type client struct {
	id  int
	st  *stream
	rec *recorder
	log *spanLog
	v   *verdict
	key []byte
	val []byte
	sc  scanCheck
}

// runClients runs one goroutine per stream until d has passed or, when
// limit > 0, each has completed limit operations. It returns the merged
// samples.
func runClients(streams []*stream, d time.Duration, limit int, v *verdict, logs []*spanLog,
	body func(c *client, deadline time.Time, limit int)) *phase {
	start := time.Now()
	deadline := start.Add(d)
	recs := make([]*recorder, len(streams))
	var wg sync.WaitGroup
	for i, st := range streams {
		c := &client{id: i, st: st, rec: newRecorder(start, d), v: v}
		if logs != nil {
			c.log = logs[i]
		}
		recs[i] = c.rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(c, deadline, limit)
		}()
	}
	wg.Wait()
	return merge(d, recs)
}

func (e *embedded) phase(streams []*stream, d time.Duration, limit int, v *verdict, logs []*spanLog) *phase {
	return runClients(streams, d, limit, v, logs, func(c *client, deadline time.Time, limit int) {
		for n := 0; limit == 0 || n < limit; n++ {
			if time.Now().After(deadline) {
				return
			}
			o := c.st.next()
			t0, d, failed := e.exec(c, o)
			c.rec.observe(o.kind, t0, d, failed)
		}
	})
}

// exec runs one operation and returns its start, its duration and
// whether it failed. Output checks report to the client's verdict.
func (e *embedded) exec(c *client, o op) (time.Time, time.Duration, bool) {
	t := e.tree
	if o.kind == opTxn {
		return e.txn(c, o)
	}
	c.key = appendKey(c.key[:0], o.key)
	k := c.key
	var err error
	t0 := time.Now()
	switch o.kind {
	case opGet:
		var val []byte
		val, err = t.Get(k)
		d := time.Since(t0)
		c.log.add("core", "get", t0, d, 0)
		if err == nil {
			c.v.fail(checkValue(k, val))
		}
		return t0, d, failed(c, err)
	case opPut, opAppend:
		c.st.version++
		c.val = appendValue(c.val[:0], k, c.st.version)
		t0 = time.Now()
		err = t.Put(k, c.val)
	case opDelete:
		err = t.Delete(k)
	case opScan:
		c.sc.reset(k)
		err = t.Scan(k, nil, func(key, val []byte) bool {
			c.sc.add(key, val)
			return c.sc.n < scanLen
		})
		d := time.Since(t0)
		c.log.add("core", "scan", t0, d, 0)
		c.rec.records += int64(c.sc.n)
		c.rec.scanNS += int64(d)
		if err == nil {
			c.v.fail(c.sc.finish(func(after []byte) (bool, error) {
				found := false
				err := t.Scan(after, nil, func(_, _ []byte) bool { found = true; return false })
				return found, err
			}))
		}
		return t0, d, failed(c, err)
	}
	d := time.Since(t0)
	c.log.add("core", o.kind.String(), t0, d, 0)
	return t0, d, failed(c, err)
}

// txn runs BEGIN, txnPuts overwrites and COMMIT; its latency runs from
// the Begin call to the Commit return.
func (e *embedded) txn(c *client, o op) (time.Time, time.Duration, bool) {
	t0 := time.Now()
	x, err := e.tree.Begin()
	c.log.add("core", "begin", t0, time.Since(t0), 0)
	if err != nil {
		return t0, time.Since(t0), failed(c, err)
	}
	for _, ki := range o.txn {
		c.key = appendKey(c.key[:0], ki)
		c.st.version++
		c.val = appendValue(c.val[:0], c.key, c.st.version)
		tp := time.Now()
		err = x.Put(c.key, c.val)
		c.log.add("core", "txn-put", tp, time.Since(tp), 0)
		if err != nil {
			x.Abort()
			return t0, time.Since(t0), failed(c, err)
		}
	}
	tc := time.Now()
	err = x.Commit()
	c.log.add("core", "commit", tc, time.Since(tc), 0)
	return t0, time.Since(t0), failed(c, err)
}

// failed classifies an operation's error: an absent key is a success,
// anything else a failure.
func failed(c *client, err error) bool {
	if err == nil || errors.Is(err, core.ErrKeyNotFound) {
		return false
	}
	c.v.opFailed(err)
	return true
}

// finish runs the untimed end-of-run checks and closes the tree: Verify on
// the live tree and VerifyDeep, which for file-backed trees runs after a
// close and reopen and must find every loaded record.
func (e *embedded) finish() (checks, error) {
	var ch checks
	e.tree.DrainTodo()
	ch.LivePages = e.tree.StoreStats().LivePages
	if e.sp.fileBacked {
		if err := e.tree.Verify(); err != nil {
			e.close()
			return ch, fmt.Errorf("verify: %w", err)
		}
		if err := e.close(); err != nil {
			return ch, fmt.Errorf("close: %w", err)
		}
		if err := e.open(nil, nil); err != nil {
			return ch, fmt.Errorf("reopen: %w", err)
		}
		ch.Reopened = true
	}
	// VerifyDeep runs Verify first; on a volatile tree that is the live
	// tree's Verify.
	rep, err := e.tree.VerifyDeep()
	if cerr := e.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return ch, fmt.Errorf("verify deep: %w", err)
	}
	ch.Verify = true
	ch.deep(rep)
	if e.sp.fileBacked && rep.Records != e.sp.keys {
		return ch, fmt.Errorf("reopened tree holds %d records, loaded %d", rep.Records, e.sp.keys)
	}
	return ch, nil
}

// checks records what the end-of-run checks found.
type checks struct {
	Verify     bool    `json:"verify"`
	VerifyDeep bool    `json:"verify_deep"`
	Reopened   bool    `json:"reopened"`
	Records    int     `json:"records"`
	LivePages  int     `json:"live_pages"`
	Height     int     `json:"height"`
	Leaves     int     `json:"leaves"`
	LeafFill   float64 `json:"leaf_fill"`
}

func (ch *checks) deep(rep *core.DeepReport) {
	ch.VerifyDeep = true
	ch.Records = rep.Records
	ch.Height = rep.Height
	if len(rep.NodesPerLevel) > 0 {
		ch.Leaves = rep.NodesPerLevel[0]
		ch.LeafFill = float64(rep.Records*(keyLen+valLen)) / float64(ch.Leaves*pageSize)
	}
}

// spaceAmp is live page bytes over live user bytes.
func (ch *checks) spaceAmp() float64 {
	if ch.Records == 0 {
		return 0
	}
	return float64(ch.LivePages*pageSize) / float64(ch.Records*(keyLen+valLen))
}
