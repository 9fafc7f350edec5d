package main

import (
	"bytes"
	"fmt"
	"sync"
)

// checkValue reports whether val is a value this benchmark wrote for key:
// valLen bytes that start with the key itself.
func checkValue(key, val []byte) error {
	if len(val) != valLen || !bytes.Equal(val[:keyLen], key) || val[keyLen] != '#' {
		return fmt.Errorf("value %q does not name key %q", val, key)
	}
	return nil
}

// scanCheck validates one scan as its records arrive: keys strictly
// ascending, none below the start key, and every value naming its key.
type scanCheck struct {
	start []byte
	prev  []byte
	n     int
	err   error
}

func (c *scanCheck) reset(start []byte) {
	c.start = append(c.start[:0], start...)
	c.prev = c.prev[:0]
	c.n = 0
	c.err = nil
}

// add checks one record; after the first failure it keeps that error.
func (c *scanCheck) add(key, val []byte) {
	if c.err != nil {
		return
	}
	switch {
	case bytes.Compare(key, c.start) < 0:
		c.err = fmt.Errorf("scan from %q returned %q below its start", c.start, key)
	case c.n > 0 && bytes.Compare(key, c.prev) <= 0:
		c.err = fmt.Errorf("scan from %q not strictly ascending: %q after %q", c.start, key, c.prev)
	default:
		c.err = checkValue(key, val)
	}
	c.prev = append(c.prev[:0], key...)
	c.n++
}

// finish checks the record count: a short scan is correct only when
// nothing lies beyond its last key, which more reports.
func (c *scanCheck) finish(more func(after []byte) (bool, error)) error {
	if c.err != nil || c.n == scanLen {
		return c.err
	}
	if c.n > scanLen {
		return fmt.Errorf("scan from %q returned %d records, asked for %d", c.start, c.n, scanLen)
	}
	after := c.start
	if c.n > 0 {
		after = append(append([]byte(nil), c.prev...), 0)
	}
	found, err := more(after)
	if err != nil {
		return err
	}
	if found {
		return fmt.Errorf("scan from %q stopped after %d records before the end of the key space", c.start, c.n)
	}
	return nil
}

// verdict collects output-check failures from every client; the first
// one is reported.
type verdict struct {
	mu    sync.Mutex
	count int
	first error
	// opErrs and firstOp count operations that returned an error; they
	// make up the failed count, not an output-check failure.
	opErrs  int
	firstOp error
}

func (v *verdict) opFailed(err error) {
	v.mu.Lock()
	if v.firstOp == nil {
		v.firstOp = err
	}
	v.opErrs++
	v.mu.Unlock()
}

func (v *verdict) fail(err error) {
	if err == nil {
		return
	}
	v.mu.Lock()
	if v.first == nil {
		v.first = err
	}
	v.count++
	v.mu.Unlock()
}

func (v *verdict) err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.first == nil {
		return nil
	}
	return fmt.Errorf("%d output check(s) failed; first: %w", v.count, v.first)
}
