// Package page defines the serialized form of B-link-tree nodes.
//
// Following the paper (§2.1), nodes are Pi-tree style: every node carries an
// explicit key-space description — a low fence key (inclusive) and a high
// fence key (exclusive) — and the side pointer together with the high fence
// key forms a complete index term for the right sibling. That is what lets a
// side traversal re-discover a missing index term with no extra access
// (§2.3): the traverser already has both the sibling's address and its key
// space.
//
// Parent-of-leaf nodes additionally persist their data-delete-state counter
// D_D (§4.1.2): keeping D_D in the node means it survives cache eviction, so
// fewer index postings are aborted after the parent is re-fetched.
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// PageID identifies a page in the underlying store. Zero is never a valid
// page: it doubles as the nil pointer.
type PageID uint64

// InvalidPage is the nil page pointer.
const InvalidPage PageID = 0

// Kind discriminates leaf (data) nodes from index (internal) nodes.
type Kind uint8

// Node kinds.
const (
	// Leaf nodes hold user records. The paper calls these data nodes.
	Leaf Kind = iota + 1
	// Index nodes hold separator keys and child pointers.
	Index
)

// String returns "leaf" or "index".
func (k Kind) String() string {
	switch k {
	case Leaf:
		return "leaf"
	case Index:
		return "index"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Content is the serializable state of one node. It is deliberately free of
// any synchronization state: latches, pins and to-do bookkeeping are volatile
// and live in the in-memory node wrapper (internal/core).
type Content struct {
	ID    PageID
	Kind  Kind
	Level uint8 // 0 for leaves, parent-of-leaf is 1
	LSN   uint64

	// Right is the side pointer; InvalidPage when this node is the
	// rightmost at its level. The side link's key-space description is
	// High: the right sibling covers [High, <right sibling's High>).
	Right PageID

	// DD is the data-delete-state counter D_D. Meaningful only for
	// parent-of-leaf nodes (Level == 1); persisted so that it survives
	// cache eviction (§4.1.2 reason 1).
	DD uint64

	// Epoch is the node's incarnation number, assigned at allocation and
	// never changed. Remembered node references carry (ID, Epoch) pairs;
	// a structure modification that finds a different epoch under a
	// remembered ID knows the ID was deallocated and recycled, and aborts.
	// This closes a narrow ABA window left by the delete-state counters
	// alone (a victim observed via a cousin's side pointer after the D_X
	// increment); see DESIGN.md.
	Epoch uint64

	// Low is the inclusive low fence; empty means -inf for the leftmost
	// node of a level. High is the exclusive high fence; nil means +inf.
	Low  []byte
	High []byte

	// Compress requests fence-key prefix compression when this content is
	// marshaled (index nodes only). Under bytewise key ordering every key k
	// in an index node satisfies Low <= k < High, which forces k to carry
	// the common byte prefix of Low and High; Marshal stores keys with that
	// prefix stripped and Unmarshal reconstructs them, so the compression
	// is invisible above this package. The field is volatile intent, not
	// serialized state: the tree sets it only under the default bytewise
	// comparator (a custom comparator does not guarantee the prefix
	// property) and Unmarshal sets it when the image's flag bit says the
	// keys were stored stripped.
	Compress bool

	// Keys are the record keys (leaf) or separator keys (index), sorted.
	Keys [][]byte
	// Vals holds the record values; used only when Kind == Leaf.
	Vals [][]byte
	// Children holds child pointers; used only when Kind == Index.
	// Children[i] covers [Keys[i], Keys[i+1]) with Children[len-1]
	// covering [Keys[len-1], High). An index node with n keys has n
	// children; the node's Low equals Keys[0].
	Children []PageID
}

// Serialization layout (little endian):
//
//	offset  size  field
//	0       4     magic "BLNK"
//	4       4     crc32 (castagnoli) of bytes [8:used]
//	8       1     kind
//	9       1     level
//	10      2     flags (bit 0: High present)
//	12      8     page id
//	20      8     LSN
//	28      8     right sibling
//	36      8     D_D
//	44      8     epoch
//	52      2     key count
//	54      2     low fence length
//	56      2     high fence length
//	58      ...   low fence, high fence, then per entry:
//	               u16 keyLen, key, then (leaf) u16 valLen, val
//	                                   or (index) u64 child
const (
	headerSize = 58
	magic      = "BLNK"
	// flagHasHigh distinguishes an absent high fence (+inf) from an empty
	// one; flagPrefix marks an index page whose keys are stored with the
	// common prefix of Low and High stripped (see Content.Compress).
	flagHasHigh = 1 << 0
	flagPrefix  = 1 << 1
	maxEntryLen = 0xFFFF
	offCRC      = 4
	offKind     = 8
	offLevel    = 9
	offFlags    = 10
	offID       = 12
	offLSN      = 20
	offRight    = 28
	offDD       = 36
	offEpoch    = 44
	offKeyCount = 52
	offLowLen   = 54
	offHighLen  = 56
	offPayload  = headerSize
	crcStart    = offKind
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by Marshal and Unmarshal.
var (
	// ErrTooLarge means the content does not fit in the page size.
	ErrTooLarge = errors.New("page: content exceeds page size")
	// ErrCorrupt means the buffer fails structural or checksum validation.
	ErrCorrupt = errors.New("page: corrupt page image")
)

// PrefixLen returns the number of leading key bytes elided per key when c
// is marshaled: the length of the common byte prefix of Low and High when
// compression is requested and applicable, zero otherwise. Compression needs
// a finite key space on both sides — a node with High == nil (+inf) or an
// empty Low (-inf) has no shared prefix to exploit.
func (c *Content) PrefixLen() int {
	if !c.Compress || c.Kind != Index || c.High == nil || len(c.Low) == 0 {
		return 0
	}
	return commonPrefix(c.Low, c.High)
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Size returns the number of bytes c occupies when marshaled. The tree uses
// this for occupancy decisions (split when full, consolidate when
// under-utilized). With prefix compression in effect the size reflects the
// stripped keys, so occupancy decisions see the real on-page density.
func (c *Content) Size() int {
	n := headerSize + len(c.Low) + len(c.High)
	for i, k := range c.Keys {
		n += 2 + len(k)
		if c.Kind == Leaf {
			n += 2 + len(c.Vals[i])
		} else {
			n += 8
		}
	}
	return n - len(c.Keys)*c.PrefixLen()
}

// EntrySize returns the marshaled size of one entry with the given key and
// value lengths (vlen is ignored for index nodes, which store a fixed-size
// child pointer).
func EntrySize(kind Kind, klen, vlen int) int {
	if kind == Leaf {
		return 2 + klen + 2 + vlen
	}
	return 2 + klen + 8
}

// Marshal serializes c into a buffer of exactly pageSize bytes.
func Marshal(c *Content, pageSize int) ([]byte, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	need := c.Size()
	if need > pageSize {
		return nil, fmt.Errorf("%w: need %d, page %d", ErrTooLarge, need, pageSize)
	}
	cp := c.PrefixLen()
	if cp > 0 {
		// Every key must carry the prefix: guaranteed by the fence
		// invariant Low <= k < High under bytewise ordering, which is the
		// only ordering the tree sets Compress under. A violation here
		// means the caller compressed under a comparator that does not
		// preserve the prefix property.
		for i, k := range c.Keys {
			if len(k) < cp || string(k[:cp]) != string(c.Low[:cp]) {
				return nil, fmt.Errorf("page: key %d lacks fence prefix under compression", i)
			}
		}
	}
	buf := make([]byte, pageSize)
	copy(buf[0:4], magic)
	buf[offKind] = byte(c.Kind)
	buf[offLevel] = c.Level
	var flags uint16
	if c.High != nil {
		flags |= flagHasHigh
	}
	if cp > 0 {
		flags |= flagPrefix
	}
	binary.LittleEndian.PutUint16(buf[offFlags:], flags)
	binary.LittleEndian.PutUint64(buf[offID:], uint64(c.ID))
	binary.LittleEndian.PutUint64(buf[offLSN:], c.LSN)
	binary.LittleEndian.PutUint64(buf[offRight:], uint64(c.Right))
	binary.LittleEndian.PutUint64(buf[offDD:], c.DD)
	binary.LittleEndian.PutUint64(buf[offEpoch:], c.Epoch)
	binary.LittleEndian.PutUint16(buf[offKeyCount:], uint16(len(c.Keys)))
	binary.LittleEndian.PutUint16(buf[offLowLen:], uint16(len(c.Low)))
	binary.LittleEndian.PutUint16(buf[offHighLen:], uint16(len(c.High)))

	p := offPayload
	p += copy(buf[p:], c.Low)
	p += copy(buf[p:], c.High)
	for i, k := range c.Keys {
		k = k[cp:] // stored stripped when compression is in effect (cp == 0 otherwise)
		binary.LittleEndian.PutUint16(buf[p:], uint16(len(k)))
		p += 2
		p += copy(buf[p:], k)
		if c.Kind == Leaf {
			v := c.Vals[i]
			binary.LittleEndian.PutUint16(buf[p:], uint16(len(v)))
			p += 2
			p += copy(buf[p:], v)
		} else {
			binary.LittleEndian.PutUint64(buf[p:], uint64(c.Children[i]))
			p += 8
		}
	}
	binary.LittleEndian.PutUint32(buf[offCRC:], crc32.Checksum(buf[crcStart:p], castagnoli))
	return buf, nil
}

// Unmarshal parses a page image produced by Marshal. The returned Content
// does not alias buf.
//
// A page load costs a fixed handful of allocations whatever the record
// count: the fences and every key and value are copied into one arena
// sized exactly, and Low, High, Keys[i] and Vals[i] are sub-slices of it,
// each clipped to its own length (cap == len) so that an append to one
// reallocates instead of writing into its neighbour. Index pages stored
// with a compressed prefix get their rebuilt full keys in the arena too.
// The arena relies on the rule that a Content's fence, key and value bytes
// are never written in place; every mutation assigns a fresh slice.
func Unmarshal(buf []byte) (*Content, error) {
	e, err := scan(buf)
	if err != nil {
		return nil, err
	}
	want := binary.LittleEndian.Uint32(buf[offCRC:])
	if got := crc32.Checksum(buf[crcStart:e.end], castagnoli); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return decode(buf, e), nil
}

// extent is what scan learns about a page image.
type extent struct {
	kind     Kind
	hasHigh  bool
	nkeys    int
	lowAt    int // offset of the low fence
	highAt   int // offset of the high fence
	entries  int // offset of the first entry
	cp       int // fence prefix elided from every stored key
	end      int // end of the payload: the checksum covers buf[crcStart:end]
	arenaLen int // bytes for the fences and every full key and value
}

// scan is Unmarshal's first pass: it checks every length in buf against
// the buffer and finds where the payload ends and how large the arena must
// be. It allocates nothing and does not check the checksum.
func scan(buf []byte) (extent, error) {
	var e extent
	if len(buf) < headerSize || string(buf[0:4]) != magic {
		return e, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	e.kind = Kind(buf[offKind])
	if e.kind != Leaf && e.kind != Index {
		return e, fmt.Errorf("%w: kind %d", ErrCorrupt, e.kind)
	}
	flags := binary.LittleEndian.Uint16(buf[offFlags:])
	if flags&^(flagHasHigh|flagPrefix) != 0 {
		return e, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, flags)
	}
	e.hasHigh = flags&flagHasHigh != 0
	e.nkeys = int(binary.LittleEndian.Uint16(buf[offKeyCount:]))
	lowLen := int(binary.LittleEndian.Uint16(buf[offLowLen:]))
	highLen := int(binary.LittleEndian.Uint16(buf[offHighLen:]))

	e.lowAt = offPayload
	e.highAt = e.lowAt + lowLen
	e.entries = e.highAt + highLen
	if e.highAt > len(buf) {
		return e, fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, e.lowAt)
	}
	if !e.hasHigh && highLen != 0 {
		return e, fmt.Errorf("%w: high length without flag", ErrCorrupt)
	}
	if e.entries > len(buf) {
		return e, fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, e.highAt)
	}
	if flags&flagPrefix != 0 {
		if e.kind == Index && e.hasHigh && lowLen > 0 {
			e.cp = commonPrefix(buf[e.lowAt:e.highAt], buf[e.highAt:e.entries])
		}
		if e.cp == 0 {
			return e, fmt.Errorf("%w: prefix flag on incompressible page", ErrCorrupt)
		}
	}
	e.arenaLen = lowLen + highLen
	p := e.entries
	for i := 0; i < e.nkeys; i++ {
		if p+2 > len(buf) {
			return e, fmt.Errorf("%w: truncated key length", ErrCorrupt)
		}
		klen := int(binary.LittleEndian.Uint16(buf[p:]))
		p += 2
		if p+klen > len(buf) {
			return e, fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, p)
		}
		if e.cp+klen > maxEntryLen {
			return e, fmt.Errorf("%w: key %d too long with its prefix", ErrCorrupt, i)
		}
		p += klen
		e.arenaLen += e.cp + klen
		if e.kind == Leaf {
			if p+2 > len(buf) {
				return e, fmt.Errorf("%w: truncated value length", ErrCorrupt)
			}
			vlen := int(binary.LittleEndian.Uint16(buf[p:]))
			p += 2
			if p+vlen > len(buf) {
				return e, fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, p)
			}
			p += vlen
			e.arenaLen += vlen
		} else {
			if p+8 > len(buf) {
				return e, fmt.Errorf("%w: truncated child pointer", ErrCorrupt)
			}
			p += 8
		}
	}
	e.end = p
	return e, nil
}

// decode is Unmarshal's second pass: it builds the Content, copying the
// fences, keys and values into one arena. scan has checked every length.
func decode(buf []byte, e extent) *Content {
	c := &Content{
		Kind:     e.kind,
		Level:    buf[offLevel],
		ID:       PageID(binary.LittleEndian.Uint64(buf[offID:])),
		LSN:      binary.LittleEndian.Uint64(buf[offLSN:]),
		Right:    PageID(binary.LittleEndian.Uint64(buf[offRight:])),
		DD:       binary.LittleEndian.Uint64(buf[offDD:]),
		Epoch:    binary.LittleEndian.Uint64(buf[offEpoch:]),
		Compress: e.cp > 0,
	}
	arena := make([]byte, e.arenaLen)
	a := copy(arena, buf[e.lowAt:e.highAt])
	c.Low = arena[:a:a]
	if e.hasHigh {
		s := a
		a += copy(arena[a:], buf[e.highAt:e.entries])
		c.High = arena[s:a:a]
	}
	var keys, vals [][]byte
	var children []PageID
	if e.kind == Leaf {
		keys, vals = make([][]byte, e.nkeys), make([][]byte, e.nkeys)
	} else {
		keys, children = make([][]byte, e.nkeys), make([]PageID, e.nkeys)
	}
	prefix := c.Low[:e.cp] // the elided fence prefix; empty unless compressed
	p := e.entries
	for i := range keys {
		klen := int(binary.LittleEndian.Uint16(buf[p:]))
		p += 2
		s := a
		if e.cp > 0 {
			a += copy(arena[a:], prefix)
		}
		a += copy(arena[a:], buf[p:p+klen])
		p += klen
		keys[i] = arena[s:a:a]
		if e.kind == Leaf {
			vlen := int(binary.LittleEndian.Uint16(buf[p:]))
			p += 2
			s = a
			a += copy(arena[a:], buf[p:p+vlen])
			p += vlen
			vals[i] = arena[s:a:a]
		} else {
			children[i] = PageID(binary.LittleEndian.Uint64(buf[p:]))
			p += 8
		}
	}
	c.Keys, c.Vals, c.Children = keys, vals, children
	return c
}

// validate checks structural consistency before marshaling.
func (c *Content) validate() error {
	if c.Kind != Leaf && c.Kind != Index {
		return fmt.Errorf("page: invalid kind %d", c.Kind)
	}
	if c.Kind == Leaf && len(c.Vals) != len(c.Keys) {
		return fmt.Errorf("page: leaf with %d keys, %d vals", len(c.Keys), len(c.Vals))
	}
	if c.Kind == Index && len(c.Children) != len(c.Keys) {
		return fmt.Errorf("page: index with %d keys, %d children", len(c.Keys), len(c.Children))
	}
	if len(c.Keys) > maxEntryLen {
		return fmt.Errorf("page: too many keys (%d)", len(c.Keys))
	}
	if len(c.Low) > maxEntryLen || len(c.High) > maxEntryLen {
		return fmt.Errorf("page: fence key too long")
	}
	for i, k := range c.Keys {
		if len(k) > maxEntryLen {
			return fmt.Errorf("page: key %d too long (%d)", i, len(k))
		}
		if c.Kind == Leaf && len(c.Vals[i]) > maxEntryLen {
			return fmt.Errorf("page: value %d too long (%d)", i, len(c.Vals[i]))
		}
	}
	return nil
}

// Clone returns a deep copy of c.
func (c *Content) Clone() *Content {
	d := &Content{
		ID: c.ID, Kind: c.Kind, Level: c.Level, LSN: c.LSN,
		Right: c.Right, DD: c.DD, Epoch: c.Epoch, Compress: c.Compress,
	}
	d.Low = append([]byte(nil), c.Low...)
	if c.High != nil {
		d.High = append([]byte(nil), c.High...)
	}
	d.Keys = make([][]byte, len(c.Keys))
	for i, k := range c.Keys {
		d.Keys[i] = append([]byte(nil), k...)
	}
	if c.Kind == Leaf {
		d.Vals = make([][]byte, len(c.Vals))
		for i, v := range c.Vals {
			d.Vals[i] = append([]byte(nil), v...)
		}
	} else {
		d.Children = append([]PageID(nil), c.Children...)
	}
	return d
}
