//go:build pardis_poison

package giop

import (
	"encoding/binary"

	"pardis/internal/cdr"
)

// poisonBits is the float64 bit pattern a released buffer is filled
// with under the pardis_poison build tag: a signalling NaN, written in
// the host's order, so that element data read out of a buffer after its
// release decodes as NaN and fails any comparison with the value that
// should have been there. Headers and counts read out of one decode as
// garbage.
const poisonBits = 0x7FF5A5A5A5A5A5A5

// poison overwrites b with the poisonBits pattern (the sanitizer half
// of every release point in this package; see DESIGN.md §10).
func poison(b []byte) {
	if len(b) == 0 {
		return
	}
	var pat [8]byte
	if cdr.NativeOrder == cdr.LittleEndian {
		binary.LittleEndian.PutUint64(pat[:], poisonBits)
	} else {
		binary.BigEndian.PutUint64(pat[:], poisonBits)
	}
	n := copy(b, pat[:])
	for n < len(b) {
		n += copy(b[n:], b[:n])
	}
}
