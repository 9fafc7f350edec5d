package server

import (
	"bufio"
	"errors"
	"net"
	"strconv"
	"strings"
	"time"

	blinktree "blinktree"
	"blinktree/internal/resp"
)

// conn is one client session: a reader goroutine (serve) that parses and
// executes commands in arrival order, and a writer goroutine (writeLoop)
// that streams the queued replies. The bounded reply queue between them is
// both the pipelining window and the backpressure mechanism: when the
// client stops reading, the queue fills and the reader blocks, stalling
// only this connection.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	out chan []byte
	// txn is the session's open transaction, nil outside BEGIN..COMMIT/ABORT.
	// Only the reader goroutine touches it.
	txn *blinktree.Txn
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv: s,
		nc:  nc,
		br:  bufio.NewReaderSize(nc, 1<<16),
		out: make(chan []byte, s.cfg.WriteQueue),
	}
}

// serve is the reader side: the connection's command loop. It returns when
// the client disconnects, a protocol error poisons the stream, the idle
// timeout fires, or the server drains; any open transaction is aborted
// before the reply queue is closed and the writer flushes out.
func (c *conn) serve() {
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.writeLoop()
	}()

	for {
		if c.srv.draining() {
			// Commands already received still run (PROTOCOL.md): keep
			// dispatching while buffered input remains. The read deadline
			// stays as Shutdown set it, so a partial frame ends the loop.
			if c.br.Buffered() == 0 {
				break
			}
		} else if c.srv.cfg.IdleTimeout > 0 {
			c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
			if c.srv.draining() {
				// Shutdown's kick may have landed before the line above.
				c.nc.SetReadDeadline(time.Now())
			}
		}
		args, err := resp.ReadCommand(c.br, c.srv.cfg.MaxBulk)
		if err != nil {
			if errors.Is(err, resp.ErrProto) {
				c.srv.stats.protoErrors.Add(1)
				c.send(resp.AppendError(nil, "PROTO", err.Error()))
			} else if isTimeout(err) && !c.srv.draining() {
				c.srv.stats.idleClosed.Add(1)
			}
			break
		}
		c.send(c.dispatch(args))
	}

	if c.txn != nil {
		// Disconnect (or drain) with a transaction open: roll it back so
		// its record locks never outlive the session.
		c.txn.Abort()
		c.txn = nil
		c.srv.stats.disconnectAborts.Add(1)
	}
	close(c.out)
	<-writerDone
	c.nc.Close()
}

// send queues one encoded reply for the writer, blocking when the queue is
// full (client-read backpressure).
func (c *conn) send(frame []byte) {
	depth := uint64(len(c.out) + 1)
	c.srv.stats.noteDepth(depth)
	c.out <- frame
}

// writeLoop is the writer side: it batches every reply available right now
// into the buffered writer and flushes once the queue momentarily empties,
// so a pipelined burst costs one syscall per drain, not one per reply.
func (c *conn) writeLoop() {
	bw := bufio.NewWriterSize(c.nc, 1<<16)
	// On a write error the peer is gone; keep draining the queue so the
	// reader never blocks on send, until it closes the channel.
	drain := func() {
		for range c.out {
		}
	}
	for frame := range c.out {
		for frame != nil {
			if _, err := bw.Write(frame); err != nil {
				drain()
				return
			}
			select {
			case next, ok := <-c.out:
				if !ok {
					bw.Flush()
					return
				}
				frame = next
			default:
				frame = nil
			}
		}
		if err := bw.Flush(); err != nil {
			drain()
			return
		}
	}
	bw.Flush()
}

// dispatch looks up and executes one command, returning the encoded reply.
func (c *conn) dispatch(args [][]byte) []byte {
	name := strings.ToUpper(string(args[0]))
	v, ok := verbs[name]
	if !ok {
		c.srv.stats.unknown.Add(1)
		return resp.AppendError(nil, "ERR", "unknown command '"+printable(args[0])+"'")
	}
	c.srv.stats.commands[v.idx].Add(1)
	if len(args) != v.arity {
		return resp.AppendError(nil, "ERR", "wrong number of arguments for '"+name+"'")
	}
	start := time.Now()
	reply := v.fn(c, args, nil)
	c.srv.stats.verbLatency[v.idx].Observe(time.Since(start))
	return reply
}

func (c *conn) cmdPing(_ [][]byte, dst []byte) []byte {
	return resp.AppendSimple(dst, "PONG")
}

func (c *conn) cmdGet(args [][]byte, dst []byte) []byte {
	var val []byte
	var err error
	if c.txn != nil {
		val, err = c.txn.Get(args[1])
	} else {
		val, err = c.srv.tree.Get(args[1])
	}
	if errors.Is(err, blinktree.ErrKeyNotFound) {
		return resp.AppendNull(dst)
	}
	if err != nil {
		return c.opError(dst, err)
	}
	return resp.AppendBulk(dst, val)
}

func (c *conn) cmdSet(args [][]byte, dst []byte) []byte {
	var err error
	if c.txn != nil {
		err = c.txn.Put(args[1], args[2])
	} else {
		err = c.srv.tree.Put(args[1], args[2])
	}
	if err != nil {
		return c.opError(dst, err)
	}
	return resp.AppendSimple(dst, "OK")
}

func (c *conn) cmdDel(args [][]byte, dst []byte) []byte {
	var err error
	if c.txn != nil {
		err = c.txn.Delete(args[1])
	} else {
		err = c.srv.tree.Delete(args[1])
	}
	if errors.Is(err, blinktree.ErrKeyNotFound) {
		return resp.AppendInt(dst, 0)
	}
	if err != nil {
		return c.opError(dst, err)
	}
	return resp.AppendInt(dst, 1)
}

func (c *conn) cmdScan(args [][]byte, dst []byte) []byte {
	limit, err := strconv.Atoi(string(args[3]))
	if err != nil || limit < 1 {
		return resp.AppendError(dst, "ERR", "SCAN limit must be a positive integer")
	}
	if limit > c.srv.cfg.MaxScan {
		limit = c.srv.cfg.MaxScan
	}
	start := args[1]
	var end []byte
	if len(args[2]) > 0 {
		end = args[2]
	}
	// SCAN reads the live tree without record locks even inside a
	// transaction (PROTOCOL.md): cursors are latch-only by design. Scan
	// hands over slices the callback may keep, so they are not re-copied.
	type kv struct{ k, v []byte }
	pairs := make([]kv, 0, min(limit, 64))
	scanErr := c.srv.tree.Scan(start, end, func(k, v []byte) bool {
		pairs = append(pairs, kv{k: k, v: v})
		return len(pairs) < limit
	})
	if scanErr != nil {
		return c.opError(dst, scanErr)
	}
	dst = resp.AppendArrayHeader(dst, 2*len(pairs))
	for _, p := range pairs {
		dst = resp.AppendBulk(dst, p.k)
		dst = resp.AppendBulk(dst, p.v)
	}
	return dst
}

func (c *conn) cmdBegin(_ [][]byte, dst []byte) []byte {
	if c.txn != nil {
		return resp.AppendError(dst, "TXN", "transaction already open")
	}
	txn, err := c.srv.tree.Begin()
	if err != nil {
		return c.opError(dst, err)
	}
	c.txn = txn
	c.srv.stats.txnBegins.Add(1)
	return resp.AppendSimple(dst, "OK")
}

func (c *conn) cmdCommit(_ [][]byte, dst []byte) []byte {
	if c.txn == nil {
		return resp.AppendError(dst, "TXN", "no transaction open")
	}
	err := c.txn.Commit()
	c.txn = nil
	if err != nil {
		return c.opError(dst, err)
	}
	c.srv.stats.txnCommits.Add(1)
	return resp.AppendSimple(dst, "OK")
}

func (c *conn) cmdAbort(_ [][]byte, dst []byte) []byte {
	if c.txn == nil {
		return resp.AppendError(dst, "TXN", "no transaction open")
	}
	err := c.txn.Abort()
	c.txn = nil
	if err != nil {
		return c.opError(dst, err)
	}
	c.srv.stats.txnAborts.Add(1)
	return resp.AppendSimple(dst, "OK")
}

func (c *conn) cmdInfo(_ [][]byte, dst []byte) []byte {
	return resp.AppendBulk(dst, c.srv.info())
}

// opError maps a tree error onto the wire error codes of PROTOCOL.md.
// ErrTxnAborted and ErrTxnDone mean the underlying transaction is finished:
// the session's txn pointer is cleared so the client's next BEGIN works.
func (c *conn) opError(dst []byte, err error) []byte {
	switch {
	case errors.Is(err, blinktree.ErrTxnAborted):
		c.txn = nil
		c.srv.stats.txnAborts.Add(1)
		return resp.AppendError(dst, "ABORTED", "transaction rolled back ("+err.Error()+"); retry")
	case errors.Is(err, blinktree.ErrTxnDone):
		c.txn = nil
		return resp.AppendError(dst, "TXN", "transaction already finished")
	case errors.Is(err, blinktree.ErrClosed):
		return resp.AppendError(dst, "ERR", "server shutting down")
	case errorsIsAny(err, blinktree.ErrEmptyKey, blinktree.ErrEntryTooLarge):
		return resp.AppendError(dst, "ERR", err.Error())
	default:
		return resp.AppendError(dst, "ERR", err.Error())
	}
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// printable sanitizes client-supplied bytes for inclusion in an error
// message: non-graphic bytes become '?', length is capped.
func printable(b []byte) string {
	if len(b) > 32 {
		b = b[:32]
	}
	out := make([]byte, len(b))
	for i, c := range b {
		if c < 0x20 || c > 0x7e {
			c = '?'
		}
		out[i] = c
	}
	return string(out)
}
