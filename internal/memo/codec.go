package memo

import "encoding/binary"

// AppendIntRuns run-length codes vs as (value, run length) varint pairs.
// The decoder knows len(vs) from elsewhere.
func AppendIntRuns(b []byte, vs []int) []byte {
	for i := 0; i < len(vs); {
		j := i + 1
		for j < len(vs) && vs[j] == vs[i] {
			j++
		}
		b = binary.AppendVarint(b, int64(vs[i]))
		b = binary.AppendUvarint(b, uint64(j-i))
		i = j
	}
	return b
}

// Reader reads an entry's varints from its front. Entries come only from
// their memo's encoders, so a malformed one is a bug, and reading past its
// end panics.
type Reader []byte

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	var v uint64
	for shift := 0; ; shift += 7 {
		c := (*r)[0]
		*r = (*r)[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
}

// Varint reads a zig-zag coded varint, as binary.AppendVarint writes it.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// IntRuns fills vs from AppendIntRuns' code.
func (r *Reader) IntRuns(vs []int) {
	for i := 0; i < len(vs); {
		v := int(r.Varint())
		for end := i + int(r.Uvarint()); i < end; i++ {
			vs[i] = v
		}
	}
}
