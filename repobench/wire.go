package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	blinktree "blinktree"
	"blinktree/internal/obs"
	"blinktree/internal/resp"
	"blinktree/internal/server"
)

// wire drives an in-process server over loopback TCP, one connection per
// client. The server owns a volatile tree.
type wire struct {
	sp      *spec
	srv     *server.Server
	served  chan error
	conns   []*countingConn
	clients []*resp.Client
}

var (
	cmdGet    = []byte("GET")
	cmdSet    = []byte("SET")
	cmdScan   = []byte("SCAN")
	cmdBegin  = []byte("BEGIN")
	cmdCommit = []byte("COMMIT")
	scanLimit = []byte(strconv.Itoa(scanLen))
)

func openWire(sp *spec, cfg *obs.Config) (*wire, error) {
	tree, err := blinktree.Open(blinktree.Options{
		PageSize:      pageSize,
		CacheSize:     sp.cacheSize,
		Observability: cfg,
	})
	if err != nil {
		return nil, fmt.Errorf("open tree: %w", err)
	}
	if err := tree.BulkLoadParallel(loadStream(sp.keys), fill, clients); err != nil {
		tree.Close()
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	w := &wire{sp: sp, srv: server.New(tree, server.Config{Addr: "127.0.0.1:0"}), served: make(chan error, 1)}
	if err := w.srv.Listen(); err != nil {
		tree.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	go func() { w.served <- w.srv.Serve() }()
	for i := 0; i < clients; i++ {
		nc, err := net.DialTimeout("tcp", w.srv.Addr().String(), 5*time.Second)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		cc := &countingConn{Conn: nc}
		w.conns = append(w.conns, cc)
		w.clients = append(w.clients, resp.NewClient(cc))
	}
	return w, nil
}

// close disconnects the clients and shuts the server down, which closes
// the tree; it waits for the accept loop to return.
func (w *wire) close() error {
	for _, c := range w.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.served; err == nil {
		err = serr
	}
	return err
}

func (w *wire) snap() snapshot {
	s := takeSnapshot(w.srv.Tree().Snapshot(), "", false)
	st := w.srv.Stats()
	s.srv = &st
	for _, c := range w.conns {
		s.wireBytes += c.read.Load() + c.written.Load()
	}
	return s
}

func (w *wire) treeSpans() []obs.OpTrace { return w.srv.Tree().Spans() }

// sent is one operation of a window and the time its first command was
// sent.
type sent struct {
	o  op
	t0 time.Time
}

func commands(o op) int {
	if o.kind == opTxn {
		return txnPuts + 2
	}
	return 1
}

// phase runs the clients in closed-loop windows: each sends at least
// windowCmds commands (a transaction is never split), flushes once, and
// reads every reply before sending the next window. An operation's
// latency runs from its first command's Send to its last reply.
func (w *wire) phase(streams []*stream, d time.Duration, limit int, v *verdict, logs []*spanLog) *phase {
	return runClients(streams, d, limit, v, logs, func(c *client, deadline time.Time, limit int) {
		rc := w.clients[c.id]
		var win []sent
		for done := 0; limit == 0 || done < limit; {
			if time.Now().After(deadline) {
				return
			}
			win = win[:0]
			for n := 0; n < windowCmds; {
				o := c.st.next()
				win = append(win, sent{o: o})
				n += commands(o)
			}
			for i := range win {
				win[i].t0 = time.Now()
				if err := w.send(c, rc, win[i].o); err != nil {
					w.drop(c, win, err)
					return
				}
			}
			tf := time.Now()
			err := rc.Flush()
			c.log.add("resp", "flush", tf, time.Since(tf), 0)
			if err != nil {
				w.drop(c, win, err)
				return
			}
			var ends [][]byte
			for i, s := range win {
				failed, end, err := w.recv(c, rc, s.o)
				if err != nil {
					w.drop(c, win[i:], err)
					return
				}
				c.rec.observe(s.o.kind, s.t0, time.Since(s.t0), failed)
				if end != nil {
					ends = append(ends, end)
				}
			}
			// A scan that came back short must have reached the end of
			// the key space; check outside the timed window.
			for _, after := range ends {
				rep, err := rc.Do(cmdScan, after, nil, []byte("1"))
				if err != nil {
					w.drop(c, nil, err)
					return
				}
				if len(rep.Array) != 0 {
					c.v.fail(fmt.Errorf("SCAN stopped before the end of the key space at %q", after))
				}
			}
			done += len(win)
		}
	})
}

// drop counts the unanswered operations of a window as failed after the
// connection broke.
func (w *wire) drop(c *client, rest []sent, err error) {
	c.v.opFailed(fmt.Errorf("connection %d: %w", c.id, err))
	for _, s := range rest {
		c.rec.observe(s.o.kind, s.t0, 0, true)
	}
}

func (w *wire) send(c *client, rc *resp.Client, o op) error {
	sendCmd := func(args ...[]byte) error {
		t0 := time.Now()
		err := rc.Send(args...)
		c.log.add("resp", "send", t0, time.Since(t0), 0)
		return err
	}
	switch o.kind {
	case opGet:
		return sendCmd(cmdGet, keyBytes(o.key))
	case opPut:
		k := keyBytes(o.key)
		c.st.version++
		return sendCmd(cmdSet, k, appendValue(nil, k, c.st.version))
	case opScan:
		return sendCmd(cmdScan, keyBytes(o.key), nil, scanLimit)
	case opTxn:
		if err := sendCmd(cmdBegin); err != nil {
			return err
		}
		for _, ki := range o.txn {
			k := keyBytes(ki)
			c.st.version++
			if err := sendCmd(cmdSet, k, appendValue(nil, k, c.st.version)); err != nil {
				return err
			}
		}
		return sendCmd(cmdCommit)
	}
	return fmt.Errorf("operation %v has no wire form", o.kind)
}

// recv reads and checks the replies of one operation. failed reports an
// error reply; end is the key after which a short scan's completeness must
// be checked; err is a broken connection.
func (w *wire) recv(c *client, rc *resp.Client, o op) (failed bool, end []byte, err error) {
	n := commands(o)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		rep, err := rc.Recv()
		c.log.add("resp", "recv", t0, time.Since(t0), 0)
		if err != nil {
			return true, nil, err
		}
		if rep.IsError() {
			if !failed {
				c.v.opFailed(errors.New(rep.Str))
			}
			failed = true
			continue
		}
		switch o.kind {
		case opGet:
			if !rep.Null {
				c.v.fail(checkValue(keyBytes(o.key), rep.Bulk))
			}
		case opScan:
			end = w.checkScan(c, o, rep)
		default:
			if rep.Kind != resp.KindSimple || rep.Str != "OK" {
				c.v.fail(fmt.Errorf("%v: unexpected reply %+v", o.kind, rep))
			}
		}
	}
	return failed, end, nil
}

func (w *wire) checkScan(c *client, o op, rep resp.Reply) []byte {
	start := keyBytes(o.key)
	if rep.Kind != resp.KindArray || len(rep.Array)%2 != 0 {
		c.v.fail(fmt.Errorf("SCAN from %q: malformed reply %+v", start, rep.Kind))
		return nil
	}
	c.sc.reset(start)
	for i := 0; i < len(rep.Array); i += 2 {
		c.sc.add(rep.Array[i].Bulk, rep.Array[i+1].Bulk)
	}
	c.rec.records += int64(c.sc.n)
	var end []byte
	err := c.sc.finish(func(after []byte) (bool, error) {
		end = after
		return false, nil
	})
	c.v.fail(err)
	return end
}

// finish runs the untimed end-of-run checks on the served tree, Verify
// and VerifyDeep, then shuts the server down.
func (w *wire) finish() (checks, error) {
	var ch checks
	tree := w.srv.Tree()
	tree.Maintain()
	ch.LivePages = tree.Pages()
	rep, err := tree.VerifyDeep()
	if cerr := w.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return ch, fmt.Errorf("verify deep: %w", err)
	}
	ch.Verify = true
	ch.deep(rep)
	return ch, nil
}
