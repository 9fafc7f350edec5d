package page

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
)

// TestUnmarshalAppendStaysInField appends to one field of a decoded page
// and checks that no other field changed: every fence, key and value is
// clipped to its own bytes of the shared arena.
func TestUnmarshalAppendStaysInField(t *testing.T) {
	leaf := leafContent()
	prefixed := compressibleIndex()
	grow := []byte("!") // short enough to fit an unclipped capacity
	cases := []struct {
		name   string
		c      *Content
		append func(c *Content)
	}{
		{"leaf Low", leaf, func(c *Content) { _ = append(c.Low, grow...) }},
		{"leaf High", leaf, func(c *Content) { _ = append(c.High, grow...) }},
		{"leaf Keys[0]", leaf, func(c *Content) { _ = append(c.Keys[0], grow...) }},
		{"leaf Keys[1]", leaf, func(c *Content) { _ = append(c.Keys[1], grow...) }},
		{"leaf Vals[0]", leaf, func(c *Content) { _ = append(c.Vals[0], grow...) }},
		{"leaf Vals[1]", leaf, func(c *Content) { _ = append(c.Vals[1], grow...) }},
		{"index Low", prefixed, func(c *Content) { _ = append(c.Low, grow...) }},
		{"index Keys[0]", prefixed, func(c *Content) { _ = append(c.Keys[0], grow...) }},
		{"index Keys[1]", prefixed, func(c *Content) { _ = append(c.Keys[1], grow...) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf, err := Marshal(tc.c, 4096)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Unmarshal(buf)
			if err != nil {
				t.Fatal(err)
			}
			tc.append(got)
			if !reflect.DeepEqual(got, tc.c) {
				t.Fatalf("append changed another field:\n got %+v\nwant %+v", got, tc.c)
			}
		})
	}
}

// TestUnmarshalRejectsWhatCannotMarshal checks the two images Marshal can
// never write and Unmarshal therefore refuses, even with a valid checksum:
// an unknown flag bit, and a stored key that is longer than a key may be
// once its elided fence prefix is put back.
func TestUnmarshalRejectsWhatCannotMarshal(t *testing.T) {
	withFlag := func(c *Content, flag uint16) []byte {
		t.Helper()
		buf, err := Marshal(c, c.Size())
		if err != nil {
			t.Fatal(err)
		}
		e, err := scan(buf)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(buf[offFlags:], binary.LittleEndian.Uint16(buf[offFlags:])|flag)
		binary.LittleEndian.PutUint32(buf[offCRC:], crc32.Checksum(buf[crcStart:e.end], castagnoli))
		return buf
	}
	// Stored in full, the key fits; with the prefix flag set, the decoder
	// would put the fences' common prefix "a" in front of it.
	long := &Content{
		Kind: Index, Level: 1, Low: []byte("ab"), High: []byte("ac"),
		Keys: [][]byte{bytes.Repeat([]byte{'b'}, maxEntryLen)}, Children: []PageID{2},
	}
	for name, buf := range map[string][]byte{
		"unknown flag":    withFlag(leafContent(), 1<<2),
		"overlong key":    withFlag(long, flagPrefix),
		"valid reference": withFlag(leafContent(), 0),
	} {
		_, err := Unmarshal(buf)
		if want := name != "valid reference"; want != errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Unmarshal error %v", name, err)
		}
	}
}

// FuzzUnmarshal feeds arbitrary images to Unmarshal: each must either fail
// or decode to a Content that marshals back to the same bytes over the
// checksummed extent, and nothing may panic. Most mutations break the
// checksum, so each input is also tried with its checksum recomputed,
// which lets the fuzzer reach the decoder past it.
func FuzzUnmarshal(f *testing.F) {
	leafEmptyHigh := leafContent()
	leafEmptyHigh.High = []byte{}
	leafNilHigh := leafContent()
	leafNilHigh.High = nil
	for _, c := range []*Content{leafContent(), indexContent(), compressibleIndex(), leafEmptyHigh, leafNilHigh} {
		buf, err := Marshal(c, c.Size())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		checkDecode(t, buf)
		e, err := scan(buf)
		if err != nil {
			return
		}
		fixed := bytes.Clone(buf)
		binary.LittleEndian.PutUint32(fixed[offCRC:], crc32.Checksum(fixed[crcStart:e.end], castagnoli))
		if !checkDecode(t, fixed) {
			t.Fatalf("image with a valid checksum rejected")
		}
	})
}

// checkDecode decodes buf and, if that succeeds, checks that the result
// marshals back to buf over the checksummed extent. It reports whether buf
// decoded.
func checkDecode(t *testing.T, buf []byte) bool {
	t.Helper()
	c, err := Unmarshal(buf)
	if err != nil {
		return false
	}
	e, err := scan(buf)
	if err != nil {
		t.Fatalf("Unmarshal accepted what scan rejects: %v", err)
	}
	if c.Size() != e.end {
		t.Fatalf("Size = %d, payload ends at %d", c.Size(), e.end)
	}
	out, err := Marshal(c, len(buf))
	if err != nil {
		t.Fatalf("decoded page does not marshal: %v", err)
	}
	if !bytes.Equal(out[:e.end], buf[:e.end]) {
		t.Fatalf("round trip changed the image:\n got %x\nwant %x", out[:e.end], buf[:e.end])
	}
	return true
}

// BenchmarkUnmarshalIndex decodes a full prefix-compressed index page, so
// every key is rebuilt from the fence prefix and its stored tail.
func BenchmarkUnmarshalIndex(b *testing.B) {
	c := &Content{
		ID: 1, Kind: Index, Level: 1,
		Low: []byte("user-00010000"), High: []byte("user-00020000"),
		Compress: true,
	}
	for i := 0; i < 200; i++ {
		c.Keys = append(c.Keys, []byte(fmt.Sprintf("user-0001%04d", i*50)))
		c.Children = append(c.Children, PageID(i+2))
	}
	if c.PrefixLen() == 0 {
		b.Fatal("index page not compressed")
	}
	buf, err := Marshal(c, c.Size())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
