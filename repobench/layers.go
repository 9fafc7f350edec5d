package main

import (
	"encoding/json"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blinktree/internal/page"
	"blinktree/internal/storage"
	"blinktree/internal/wal"
)

// benchSpan is one call the benchmark timed at a layer boundary. Start is
// relative to the run's origin. Client is -1 for storage and log device
// calls, which carry no request context.
type benchSpan struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Client int    `json:"client"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// spanAgg totals the spans of one layer.call name.
type spanAgg struct {
	N     int64 `json:"n"`
	NS    int64 `json:"ns"`
	Bytes int64 `json:"bytes"`
}

// ringSize bounds the raw spans each log keeps for the written ledger;
// the aggregates cover every span.
const ringSize = 4096

// spanLog records one client's spans; it is owned by that client's
// goroutine. A nil *spanLog records nothing, which is how untraced runs
// pay only a nil check.
type spanLog struct {
	origin time.Time
	client int
	agg    map[string]*spanAgg
	ring   []benchSpan
	next   int
}

func newSpanLog(origin time.Time, client int) *spanLog {
	return &spanLog{origin: origin, client: client, agg: map[string]*spanAgg{}}
}

func (l *spanLog) add(layer, name string, t0 time.Time, d time.Duration, bytes int64) {
	if l == nil {
		return
	}
	key := layer + "." + name
	a := l.agg[key]
	if a == nil {
		a = &spanAgg{}
		l.agg[key] = a
	}
	a.N++
	a.NS += int64(d)
	a.Bytes += bytes
	s := benchSpan{Layer: layer, Name: name, Client: l.client, Start: int64(t0.Sub(l.origin)), Dur: int64(d), Bytes: bytes}
	if len(l.ring) < ringSize {
		l.ring = append(l.ring, s)
	} else {
		l.ring[l.next] = s
	}
	l.next = (l.next + 1) % ringSize
}

// ioSpans records the spans of the storage and log-device decorators,
// which every client and the tree's background workers share.
type ioSpans struct {
	mu  sync.Mutex
	log *spanLog
}

func newIOSpans(origin time.Time) *ioSpans { return &ioSpans{log: newSpanLog(origin, -1)} }

func (s *ioSpans) add(layer, name string, t0 time.Time, bytes int64) {
	d := time.Since(t0)
	s.mu.Lock()
	s.log.add(layer, name, t0, d, bytes)
	s.mu.Unlock()
}

// totals copies the aggregates, so a measured window can take their
// difference.
func (s *ioSpans) totals() map[string]spanAgg {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.totals()
}

func (l *spanLog) totals() map[string]spanAgg {
	out := make(map[string]spanAgg, len(l.agg))
	for k, a := range l.agg {
		out[k] = *a
	}
	return out
}

// tracedStore forwards to a storage.Store and times each page read,
// write and sync.
type tracedStore struct {
	storage.Store
	spans *ioSpans
}

func (s *tracedStore) Read(id page.PageID) ([]byte, error) {
	t0 := time.Now()
	b, err := s.Store.Read(id)
	s.spans.add("storage", "read", t0, int64(len(b)))
	return b, err
}

func (s *tracedStore) Write(id page.PageID, buf []byte) error {
	t0 := time.Now()
	err := s.Store.Write(id, buf)
	s.spans.add("storage", "write", t0, int64(len(buf)))
	return err
}

func (s *tracedStore) Sync() error {
	t0 := time.Now()
	err := s.Store.Sync()
	s.spans.add("storage", "sync", t0, 0)
	return err
}

// AllocateBatch keeps the wrapped store's batch allocator reachable, so
// a traced bulk load takes the same path as an untraced one.
func (s *tracedStore) AllocateBatch(n int) ([]page.PageID, error) {
	return storage.AllocateBatch(s.Store, n)
}

// tracedDevice forwards to a wal.Device and times each append and sync.
type tracedDevice struct {
	wal.Device
	spans *ioSpans
}

func (d *tracedDevice) Append(frame []byte) error {
	t0 := time.Now()
	err := d.Device.Append(frame)
	d.spans.add("wal", "append", t0, int64(len(frame)))
	return err
}

func (d *tracedDevice) Sync() error {
	t0 := time.Now()
	err := d.Device.Sync()
	d.spans.add("wal", "sync", t0, 0)
	return err
}

// TailTorn keeps the wrapped device's torn-tail report reachable.
func (d *tracedDevice) TailTorn() (bool, int64) {
	if tr, ok := d.Device.(wal.TailReporter); ok {
		return tr.TailTorn()
	}
	return false, 0
}

// countingConn counts the bytes a wire client moves in both directions.
type countingConn struct {
	net.Conn
	read, written atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written.Add(int64(n))
	return n, err
}

// addTotals sums span aggregates into dst.
func addTotals(dst map[string]spanAgg, src map[string]spanAgg) {
	for k, a := range src {
		t := dst[k]
		t.N += a.N
		t.NS += a.NS
		t.Bytes += a.Bytes
		dst[k] = t
	}
}

// writeSpans writes every kept raw span as one JSON object per line,
// ordered by start time.
func writeSpans(w io.Writer, logs ...*spanLog) error {
	var all []benchSpan
	for _, l := range logs {
		if l != nil {
			all = append(all, l.ring...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	enc := json.NewEncoder(w)
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
