package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
)

// opKind is one kind of operation a client issues.
type opKind uint8

const (
	opGet    opKind = iota // point read (GET on the wire)
	opPut                  // overwrite of an existing key (SET on the wire)
	opDelete               // delete; an absent key is not a failure
	opAppend               // put of a new key past the right edge
	opScan                 // ascending scan of scanLen records (SCAN on the wire)
	opTxn                  // BEGIN, txnPuts overwrites, COMMIT
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "delete", "append", "scan", "txn"}

func (k opKind) String() string { return kindNames[k] }

const (
	// clients is the number of closed-loop client goroutines or
	// connections per workload: the host has two CPUs.
	clients = 2
	// scanLen is the number of records one scan asks for.
	scanLen = 100
	// txnPuts is the number of overwrites inside one transaction.
	txnPuts = 4
	// windowCmds is the number of commands a wire client keeps in flight.
	windowCmds = 32
	// keyLen and valLen are the encoded sizes of keys and values.
	keyLen = 14
	valLen = 24
	// fill is the bulk-load leaf fill factor.
	fill = 0.85
)

// weighted is one entry of an operation mix, in percent.
type weighted struct {
	kind opKind
	pct  int
}

// spec describes one workload.
type spec struct {
	name string
	why  string
	// keys is the number of records bulk-loaded at set-up.
	keys int
	// cacheSize is the buffer pool capacity in pages.
	cacheSize int
	// fileBacked trees live in pages.db and wal.log; the others are
	// volatile and in memory.
	fileBacked bool
	// wire workloads drive an in-process server over loopback TCP.
	wire bool
	// zipf selects zipf(s=1.2) keys instead of uniform ones.
	zipf bool
	// flush documents the logging and flush policy in the record.
	flush string
	mix   []weighted
	// probe lists the operation kinds the main mix lacks. Every workload
	// reports every end-to-end metric, so these kinds are measured in a
	// short closed-loop phase of their own after the main mix.
	probe []opKind
	// warmup is the number of main-mix operations each client runs
	// during set-up, after the bulk load.
	warmup int
}

var specs = []spec{
	{
		name: "embedded-hot",
		why: "in-memory hot path alone: optimistic descent, page search, latches, pool hits, " +
			"splits and consolidation; no storage I/O and no log",
		keys:      1_000_000,
		cacheSize: 16384,
		zipf:      true,
		flush:     "none: volatile tree, no log",
		mix:       []weighted{{opGet, 70}, {opPut, 20}, {opDelete, 5}, {opAppend, 5}},
		probe:     []opKind{opScan},
		warmup:    100_000,
	},
	{
		name: "scan-evict",
		why: "larger-than-cache tree: cursor, pool misses, clock eviction, dirty write-back " +
			"and store reads dominate",
		keys:       2_000_000,
		cacheSize:  1024,
		fileBacked: true,
		flush:      "durability sync; puts logged, never forced; forces only from the WAL rule on dirty eviction",
		mix:        []weighted{{opScan, 40}, {opGet, 50}, {opPut, 10}},
		warmup:     5_000,
	},
	{
		name: "net-txn",
		why: "wire protocol, server dispatch and reply queue, lock manager and transactions " +
			"over the in-process server",
		keys:      500_000,
		cacheSize: 16384,
		wire:      true,
		// Volatile, not blinkd's file-backed default: with the log forced
		// on every commit (sync), or even every 2ms (periodic), the run
		// measured the shared virtual disk more than the server, and spread
		// more from run to run than any bound may allow.
		flush:  "none: volatile tree, no log",
		mix:    []weighted{{opGet, 75}, {opPut, 17}, {opTxn, 8}},
		probe:  []opKind{opScan},
		warmup: 20_000,
	},
}

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// op is one generated operation. key is the target key index (the start
// key for a scan); txn holds a transaction's sorted, distinct keys.
type op struct {
	kind opKind
	key  int
	txn  [txnPuts]int
}

// stream generates one client's operations. The sequence depends only on
// the seed it was built from, the client index and the mix.
type stream struct {
	seed    int64
	client  int
	keys    int
	r       *rand.Rand
	zipf    *rand.Zipf
	kinds   []opKind
	cum     []int
	appends int
	version int
}

// deriveSeed gives each client (and each phase) its own stream seed.
func deriveSeed(seed int64, salt int) int64 {
	z := uint64(seed) + uint64(salt+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

func newStream(sp *spec, mix []weighted, seed int64, client int) *stream {
	s := &stream{seed: seed, client: client, keys: sp.keys, r: rand.New(rand.NewSource(seed))}
	if sp.zipf {
		s.zipf = rand.NewZipf(s.r, 1.2, 1, uint64(sp.keys-1))
	}
	total := 0
	for _, w := range mix {
		total += w.pct
		s.kinds = append(s.kinds, w.kind)
		s.cum = append(s.cum, total)
	}
	return s
}

func (s *stream) pick() int {
	if s.zipf != nil {
		return int(s.zipf.Uint64())
	}
	return s.r.Intn(s.keys)
}

func (s *stream) next() op {
	x := s.r.Intn(s.cum[len(s.cum)-1])
	i := sort.SearchInts(s.cum, x+1)
	o := op{kind: s.kinds[i]}
	switch o.kind {
	case opAppend:
		// Clients interleave past the loaded range, so new keys are
		// distinct without any shared counter.
		o.key = s.keys + s.appends*clients + s.client
		s.appends++
	case opScan:
		o.key = s.r.Intn(s.keys)
	case opTxn:
		for n := 0; n < txnPuts; {
			k := s.r.Intn(s.keys)
			dup := false
			for _, have := range o.txn[:n] {
				dup = dup || have == k
			}
			if !dup {
				o.txn[n] = k
				n++
			}
		}
		// Ascending lock order: two transactions never wait on each
		// other in a cycle.
		sort.Ints(o.txn[:])
	default:
		o.key = s.pick()
	}
	return o
}

// streamHash hashes the first n operations of a stream; the self-test
// compares it across two streams built from the same seed.
func streamHash(s *stream, n int) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		o := s.next()
		fmt.Fprintf(h, "%d:%d:%v;", o.kind, o.key, o.txn)
	}
	return h.Sum64()
}

// appendKey appends the key of record i, "user%010d", to dst.
func appendKey(dst []byte, i int) []byte {
	var digits [10]byte
	for p := len(digits) - 1; p >= 0; p-- {
		digits[p] = byte('0' + i%10)
		i /= 10
	}
	dst = append(dst, "user"...)
	return append(dst, digits[:]...)
}

func keyBytes(i int) []byte { return appendKey(make([]byte, 0, keyLen), i) }

// appendValue appends a valLen-byte value naming key to dst.
func appendValue(dst, key []byte, version int) []byte {
	dst = append(dst, key...)
	dst = append(dst, '#')
	var digits [valLen - keyLen - 1]byte
	v := version
	for p := len(digits) - 1; p >= 0; p-- {
		digits[p] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, digits[:]...)
}

// loadStream yields the bulk-load records in ascending key order.
func loadStream(n int) func() (key, val []byte, ok bool) {
	i := 0
	return func() ([]byte, []byte, bool) {
		if i >= n {
			return nil, nil, false
		}
		k := keyBytes(i)
		i++
		return k, appendValue(make([]byte, 0, valLen), k, 0), true
	}
}
