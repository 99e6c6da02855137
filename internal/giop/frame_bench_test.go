package giop

import (
	"bytes"
	"net"
	"testing"

	"pardis/internal/cdr"
)

// discardBuffers swallows writes but keeps the gather-write fast path,
// so the write benchmark exercises the same code shape as a metered
// TCP conn.
type discardBuffers struct{}

func (discardBuffers) Write(p []byte) (int, error) { return len(p), nil }

func (discardBuffers) WriteBuffers(v *net.Buffers) (int64, error) {
	var n int64
	for _, b := range *v {
		n += int64(len(b))
	}
	*v = (*v)[:0]
	return n, nil
}

func BenchmarkWriteMessage(b *testing.B) {
	for _, n := range []int{0, 256, 64 << 10} {
		body := make([]byte, n)
		b.Run(byteCountName(n), func(b *testing.B) {
			b.SetBytes(int64(n) + HeaderLen)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := WriteMessage(discardBuffers{}, cdr.BigEndian, MsgRequest, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byteCountName(n int) string {
	switch {
	case n >= 1<<10:
		return "body=" + itoa(n>>10) + "KiB"
	default:
		return "body=" + itoa(n) + "B"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d [8]byte
	i := len(d)
	for n > 0 {
		i--
		d[i] = byte('0' + n%10)
		n /= 10
	}
	return string(d[i:])
}

// loopReader replays one frame forever, so the reader benchmark never
// rebuilds its input.
type loopReader struct {
	data []byte
	pos  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.pos == len(l.data) {
		l.pos = 0
	}
	n := copy(p, l.data[l.pos:])
	l.pos += n
	return n, nil
}

func BenchmarkFrameReader(b *testing.B) {
	for _, n := range []int{4, 256, 8 << 10} {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, cdr.BigEndian, MsgReply, make([]byte, n)); err != nil {
			b.Fatal(err)
		}
		b.Run(byteCountName(n), func(b *testing.B) {
			fr := NewFrameReader(&loopReader{data: buf.Bytes()})
			b.SetBytes(int64(n) + HeaderLen)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := fr.ReadFrame()
				if err != nil {
					b.Fatal(err)
				}
				f.Release()
			}
		})
	}
}

func BenchmarkAcquireEncoder(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := AcquireEncoder(cdr.BigEndian)
		e.PutULong(uint32(i))
		e.Release()
	}
}
