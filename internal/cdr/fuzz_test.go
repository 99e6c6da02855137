package cdr

import (
	"bytes"
	"math"
	"testing"
)

// The sequence decoders face wire input an arbitrary peer controls, so
// each bulk decoder is fuzzed differentially against its plain
// counterpart on the same bytes: same verdict, same values, same
// stream position — and no panic and no unbounded allocation on
// truncated or length-lying input (a header promising more elements
// than the stream holds must fail fast, not allocate first).

// fuzzOrder maps the fuzz engine's bool to a byte order.
func fuzzOrder(big bool) ByteOrder {
	if big {
		return BigEndian
	}
	return LittleEndian
}

func FuzzDoubleSeqInto(f *testing.F) {
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		e := NewEncoder(order)
		e.PutDoubleSeq([]float64{1.5, -2.25, math.NaN(), math.Inf(1)})
		f.Add(e.Bytes(), order == BigEndian)
	}
	f.Add([]byte{0, 0, 0, 5, 1, 2, 3}, true)             // length-lying
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0}, false)   // absurd length
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, true) // truncated element
	f.Fuzz(func(t *testing.T, data []byte, big bool) {
		order := fuzzOrder(big)
		d1 := NewDecoder(order, data)
		plain, err1 := d1.DoubleSeq()
		d2 := NewDecoder(order, data)
		into, err2 := d2.DoubleSeqInto(make([]float64, 0, 8))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("verdicts differ: plain %v, into %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if len(plain) != len(into) {
			t.Fatalf("lengths differ: plain %d, into %d", len(plain), len(into))
		}
		for i := range plain {
			if math.Float64bits(plain[i]) != math.Float64bits(into[i]) {
				t.Fatalf("element %d: plain %x, into %x",
					i, math.Float64bits(plain[i]), math.Float64bits(into[i]))
			}
		}
		if d1.Remaining() != d2.Remaining() {
			t.Fatalf("positions differ: plain %d remaining, into %d",
				d1.Remaining(), d2.Remaining())
		}
	})
}

func FuzzLongSeqInto(f *testing.F) {
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		e := NewEncoder(order)
		e.PutLongSeq([]int32{-1, 0, 1 << 30})
		f.Add(e.Bytes(), order == BigEndian)
	}
	f.Add([]byte{0, 0, 0, 9, 1}, true)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F}, false)
	f.Fuzz(func(t *testing.T, data []byte, big bool) {
		order := fuzzOrder(big)
		d1 := NewDecoder(order, data)
		plain, err1 := d1.LongSeq()
		d2 := NewDecoder(order, data)
		into, err2 := d2.LongSeqInto(make([]int32, 0, 8))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("verdicts differ: plain %v, into %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if len(plain) != len(into) {
			t.Fatalf("lengths differ: plain %d, into %d", len(plain), len(into))
		}
		for i := range plain {
			if plain[i] != into[i] {
				t.Fatalf("element %d: plain %d, into %d", i, plain[i], into[i])
			}
		}
		if d1.Remaining() != d2.Remaining() {
			t.Fatalf("positions differ: plain %d remaining, into %d",
				d1.Remaining(), d2.Remaining())
		}
	})
}

func FuzzULongSeqInto(f *testing.F) {
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		e := NewEncoder(order)
		e.PutULongSeq([]uint32{0, 7, 1 << 31})
		f.Add(e.Bytes(), order == BigEndian)
	}
	f.Add([]byte{0, 0, 1, 0, 9}, true)
	f.Fuzz(func(t *testing.T, data []byte, big bool) {
		order := fuzzOrder(big)
		d1 := NewDecoder(order, data)
		plain, err1 := d1.ULongSeq()
		d2 := NewDecoder(order, data)
		into, err2 := d2.ULongSeqInto(make([]uint32, 0, 8))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("verdicts differ: plain %v, into %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if len(plain) != len(into) {
			t.Fatalf("lengths differ: plain %d, into %d", len(plain), len(into))
		}
		for i := range plain {
			if plain[i] != into[i] {
				t.Fatalf("element %d: plain %d, into %d", i, plain[i], into[i])
			}
		}
		if d1.Remaining() != d2.Remaining() {
			t.Fatalf("positions differ: plain %d remaining, into %d",
				d1.Remaining(), d2.Remaining())
		}
	})
}

// FuzzStringSeq checks the variable-length case: decode must never
// panic, must fail cleanly on truncated or length-lying headers, and a
// successful decode must survive a re-encode/decode round trip
// byte-exactly (strings are raw octets, not validated text).
func FuzzStringSeq(f *testing.F) {
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		e := NewEncoder(order)
		e.PutStringSeq([]string{"", "a", "payload with \x00 bytes"})
		f.Add(e.Bytes(), order == BigEndian)
	}
	f.Add([]byte{0, 0, 0, 3, 0, 0, 0, 1, 'x'}, true)        // fewer strings than promised
	f.Add([]byte{0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}, true) // string length lie
	f.Fuzz(func(t *testing.T, data []byte, big bool) {
		order := fuzzOrder(big)
		d := NewDecoder(order, data)
		seq, err := d.StringSeq()
		if err != nil {
			return
		}
		e := NewEncoder(order)
		e.PutStringSeq(seq)
		back, err := NewDecoder(order, e.Bytes()).StringSeq()
		if err != nil {
			t.Fatalf("re-decode of a decoded sequence failed: %v", err)
		}
		if len(back) != len(seq) {
			t.Fatalf("round trip length %d, want %d", len(back), len(seq))
		}
		for i := range seq {
			if back[i] != seq[i] {
				t.Fatalf("round trip element %d: %q, want %q", i, back[i], seq[i])
			}
		}
	})
}

// encoderScript interprets data as a sequence of Put* calls on e: one
// opcode octet, then whatever operand octets the call wants (an
// exhausted script reads as zeros). after runs behind every call.
func encoderScript(e *Encoder, data []byte, after func()) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	str := func() string {
		b := make([]byte, next()%9)
		for i := range b {
			b[i] = next()
		}
		return string(b)
	}
	for len(data) > 0 {
		switch op := next(); op % 14 {
		case 0:
			e.PutOctet(next())
		case 1:
			e.PutBoolean(next()&1 == 1)
		case 2:
			e.PutShort(int16(next()) << 3)
		case 3:
			e.PutLong(int32(next()) << 11)
		case 4:
			e.PutLongLong(int64(next()) << 37)
		case 5:
			e.PutDouble(float64(next()) / 7)
		case 6:
			e.PutString(str())
		case 7:
			e.PutOctetSeq([]byte(str()))
		case 8, 9:
			v := make([]float64, next()%40)
			for i := range v {
				v[i] = float64(next()) / 3
			}
			if op%14 == 8 {
				e.PutDoubleSeq(v)
			} else {
				e.PutDoubles(v)
			}
		case 10:
			v := make([]int32, next()%40)
			for i := range v {
				v[i] = int32(next()) - 100
			}
			e.PutLongSeq(v)
		case 11:
			v := make([]string, next()%6)
			for i := range v {
				v[i] = str()
			}
			e.PutStringSeq(v)
		case 12:
			s := str()
			e.PutEncapsulation(e.Order(), func(ie *Encoder) { ie.PutString(s); ie.PutDouble(1.5) })
		case 13:
			v := make([]float64, next()%40)
			for i := range v {
				v[i] = float64(next()) / 5
			}
			e.PutDoublesRef(v) // copies on an encoder that does not splice
		}
		after()
	}
}

// FuzzEncoderReuse: pooled encoders are recycled with the previous
// message still in their spare capacity, and the bulk writers take that
// capacity unzeroed. Whatever sequence of Put* calls runs, an encoder
// whose spare capacity reads 0xFF before every call must produce the
// bytes a fresh one does — alignment pads, string NULs and PutStringSeq's
// pre-zeroed layout included — or a recycled buffer could leak an
// earlier message onto the wire.
func FuzzEncoderReuse(f *testing.F) {
	f.Add([]byte{0, 1, 5, 9, 11, 3, 2, 'a', 'b', 0, 1, 'c'}, uint8(0), true)
	f.Add([]byte{0, 7, 8, 3, 1, 2, 3, 0, 9, 9, 2, 4, 5}, uint8(5), false)
	f.Add([]byte{6, 3, 'x', 'y', 'z', 10, 3, 1, 2, 3, 12, 2, 'h', 'i', 4, 9}, uint8(3), true)
	f.Add([]byte{13, 200, 0, 1, 11, 5, 0, 1, 'a', 2, 'b', 'c', 0, 8, 'l', 'o', 'n', 'g', 'e', 'r', '!', '!'}, uint8(1), false)
	f.Fuzz(func(t *testing.T, script []byte, base uint8, big bool) {
		order := fuzzOrder(big)
		fresh := NewEncoderAt(order, int(base%8))
		encoderScript(fresh, script, func() {})

		used := NewEncoderAt(order, int(base%8))
		dirty := func() {
			spare := used.buf[len(used.buf):cap(used.buf)]
			for i := range spare {
				spare[i] = 0xFF
			}
		}
		dirty()
		encoderScript(used, script, dirty)
		if !bytes.Equal(fresh.Bytes(), used.Bytes()) {
			t.Fatalf("recycled encoder diverges from a fresh one:\nfresh % x\nused  % x", fresh.Bytes(), used.Bytes())
		}
	})
}
