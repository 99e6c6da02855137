package cdr

import (
	"bytes"
	"math"
	"testing"
)

// TestVectorizedSeqWireCompat pins the vectorized sequence encoders to
// the scalar wire format: a bulk PutDoubleSeq/PutLongSeq/PutULongSeq/
// PutStringSeq must emit byte-for-byte what a count + element loop
// emits, in both byte orders (the fast native-copy path must not leak
// host endianness onto the wire).
func TestVectorizedSeqWireCompat(t *testing.T) {
	ds := make([]float64, 129) // odd length exercises the tail
	ls := make([]int32, 129)
	us := make([]uint32, 129)
	for i := range ds {
		ds[i] = math.Sqrt(float64(i)) * 1e10
		ls[i] = int32(i*2654435761) - 77
		us[i] = uint32(i * 2246822519)
	}
	ss := []string{"", "a", "pad-me", "longer string value here"}

	for _, o := range orders {
		fast := NewEncoder(o)
		fast.PutDoubleSeq(ds)
		fast.PutLongSeq(ls)
		fast.PutULongSeq(us)
		fast.PutStringSeq(ss)

		slow := NewEncoder(o)
		slow.PutULong(uint32(len(ds)))
		for _, v := range ds {
			slow.PutDouble(v)
		}
		slow.PutULong(uint32(len(ls)))
		for _, v := range ls {
			slow.PutLong(v)
		}
		slow.PutULong(uint32(len(us)))
		for _, v := range us {
			slow.PutULong(v)
		}
		slow.PutULong(uint32(len(ss)))
		for _, s := range ss {
			slow.PutString(s)
		}

		if !bytes.Equal(fast.Bytes(), slow.Bytes()) {
			t.Fatalf("%v: vectorized encoding diverges from scalar wire format", o)
		}
	}
}

// TestSeqIntoReuse: the Into decoders must fill a caller-supplied
// slice in place when its capacity suffices, rather than allocating.
func TestSeqIntoReuse(t *testing.T) {
	ds := []float64{1, 2, 3, 4, 5}
	ls := []int32{-9, 8, -7}
	for _, o := range orders {
		e := NewEncoder(o)
		e.PutDoubleSeq(ds)
		e.PutLongSeq(ls)
		d := NewDecoder(o, e.Bytes())

		dbuf := make([]float64, 0, 16)
		gotD, err := d.DoubleSeqInto(dbuf)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotD) != len(ds) || &gotD[0] != &dbuf[:1][0] {
			t.Fatalf("%v: DoubleSeqInto did not reuse the destination", o)
		}
		for i := range ds {
			if gotD[i] != ds[i] {
				t.Fatalf("double[%d] = %v want %v", i, gotD[i], ds[i])
			}
		}

		lbuf := make([]int32, 3)
		gotL, err := d.LongSeqInto(lbuf)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotL) != len(ls) || &gotL[0] != &lbuf[0] {
			t.Fatalf("%v: LongSeqInto did not reuse the destination", o)
		}
		for i := range ls {
			if gotL[i] != ls[i] {
				t.Fatalf("long[%d] = %v want %v", i, gotL[i], ls[i])
			}
		}
	}
}

// TestSeqIntoGrows: a too-small destination must not be written past
// its capacity — the decoder allocates instead.
func TestSeqIntoGrows(t *testing.T) {
	ds := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	e := NewEncoder(LittleEndian)
	e.PutDoubleSeq(ds)

	small := make([]float64, 0, 2)
	got, err := NewDecoder(LittleEndian, e.Bytes()).DoubleSeqInto(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ds) {
		t.Fatalf("got %d doubles, want %d", len(got), len(ds))
	}
	for i := range ds {
		if got[i] != ds[i] {
			t.Fatalf("double[%d] = %v want %v", i, got[i], ds[i])
		}
	}
}

// TestULongSeqInto covers the unsigned variant's reuse and values.
func TestULongSeqInto(t *testing.T) {
	us := []uint32{0, 1, 1 << 31, 0xFFFFFFFF}
	for _, o := range orders {
		e := NewEncoder(o)
		e.PutULongSeq(us)
		buf := make([]uint32, 0, 8)
		got, err := NewDecoder(o, e.Bytes()).ULongSeqInto(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(us) || &got[0] != &buf[:1][0] {
			t.Fatalf("%v: ULongSeqInto did not reuse the destination", o)
		}
		for i := range us {
			if got[i] != us[i] {
				t.Fatalf("ulong[%d] = %v want %v", i, got[i], us[i])
			}
		}
	}
}

// TestSeqIntoEmpty: zero-length sequences return an empty (but non-nil
// when a destination was supplied) slice and leave the stream aligned.
func TestSeqIntoEmpty(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.PutDoubleSeq(nil)
	e.PutULong(42)
	d := NewDecoder(BigEndian, e.Bytes())
	got, err := d.DoubleSeqInto(make([]float64, 0, 4))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty seq: %v, %v", got, err)
	}
	tail, err := d.ULong()
	if err != nil || tail != 42 {
		t.Fatalf("stream misaligned after empty seq: %d, %v", tail, err)
	}
}

// TestResetTo: a recycled encoder must forget its previous order and
// base offset.
func TestResetTo(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.PutULong(7)
	e.ResetTo(LittleEndian, 0)
	e.PutULong(0x01020304)
	want := []byte{0x04, 0x03, 0x02, 0x01}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("after ResetTo: % x want % x", e.Bytes(), want)
	}
}

// joinSplices is the message a splicing encoder stands for: its own
// bytes with every spliced segment inserted at its offset.
func joinSplices(e *Encoder) []byte {
	var out []byte
	off := 0
	for _, s := range e.Splices() {
		out = append(out, e.Bytes()[off:s.Off]...)
		out = append(out, s.Data...)
		off = s.Off
	}
	return append(out, e.Bytes()[off:]...)
}

// TestDoubleSeqPiecewise pins the marshal-in-place forms to the
// sequence<double> wire: a count plus PutDoubles — or PutDoublesRef,
// copying or spliced — per block (empty blocks included) must emit
// what PutDoubleSeq emits for the concatenation, and DoubleSeqRaw must
// hand back exactly the element bytes DecodeDoubles needs to refill the
// blocks — in both byte orders and from a misaligned stream position.
func TestDoubleSeqPiecewise(t *testing.T) {
	blocks := [][]float64{{1.5, -2.25}, nil, {3}, {}, {4e300, 5e-300, 6}}
	var flat []float64
	for _, b := range blocks {
		flat = append(flat, b...)
	}
	for _, o := range orders {
		whole := NewEncoderAt(o, 3)
		whole.PutOctet(7)
		whole.PutDoubleSeq(flat)
		whole.PutOctet(9)

		var splices []Splice
		spliced := NewSplicingEncoder(o, &splices)
		spliced.ResetTo(o, 3)
		for _, p := range []struct {
			name string
			put  func(*Encoder, []float64)
		}{
			{"PutDoubles", (*Encoder).PutDoubles},
			{"PutDoublesRef", (*Encoder).PutDoublesRef}, // last: spliced keeps its splices
		} {
			name, put := p.name, p.put
			for _, pieces := range []*Encoder{NewEncoderAt(o, 3), spliced} {
				pieces.ResetTo(o, 3)
				pieces.PutOctet(7)
				pieces.PutULong(uint32(len(flat)))
				for _, b := range blocks {
					put(pieces, b)
				}
				pieces.PutOctet(9)
				if !bytes.Equal(whole.Bytes(), joinSplices(pieces)) {
					t.Fatalf("%v: %s encoding diverges from PutDoubleSeq (%d splices)",
						o, name, len(pieces.Splices()))
				}
			}
		}
		if o == NativeOrder && len(spliced.Splices()) != 3 {
			t.Fatalf("%v: %d splices for three non-empty blocks", o, len(spliced.Splices()))
		}
		if o != NativeOrder && len(spliced.Splices()) != 0 {
			t.Fatalf("%v: a foreign-order encoder spliced instead of swapping", o)
		}
		// A reset drops the references, so a recycled encoder does not
		// keep the last message's element data reachable.
		n := len(splices)
		spliced.Reset()
		if len(spliced.Splices()) != 0 {
			t.Fatalf("%v: Reset kept %d splices", o, len(spliced.Splices()))
		}
		for i, s := range splices[:n] {
			if s.Data != nil {
				t.Fatalf("%v: splice %d still references its data after Reset", o, i)
			}
		}

		d := NewDecoderAt(o, whole.Bytes(), 3)
		if _, err := d.Octet(); err != nil {
			t.Fatal(err)
		}
		raw, err := d.DoubleSeqRaw()
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) != len(flat)*8 {
			t.Fatalf("%v: raw holds %d bytes for %d doubles", o, len(raw), len(flat))
		}
		for _, b := range blocks {
			got := make([]float64, len(b))
			DecodeDoubles(got, raw[:len(b)*8], o)
			raw = raw[len(b)*8:]
			for i := range b {
				if got[i] != b[i] {
					t.Fatalf("%v: decoded %v, want %v", o, got, b)
				}
			}
		}
		if tail, err := d.Octet(); err != nil || tail != 9 {
			t.Fatalf("%v: decoder misplaced after DoubleSeqRaw: %v %v", o, tail, err)
		}
	}

	// An empty sequence carries no alignment padding and no elements; a
	// count beyond the stream is refused.
	e := NewEncoder(BigEndian)
	e.PutDoubleSeq(nil)
	if raw, err := NewDecoder(BigEndian, e.Bytes()).DoubleSeqRaw(); err != nil || len(raw) != 0 {
		t.Fatalf("empty sequence: %v %v", raw, err)
	}
	e.Reset()
	e.PutULong(1 << 20)
	if _, err := NewDecoder(BigEndian, e.Bytes()).DoubleSeqRaw(); err == nil {
		t.Fatal("oversized count accepted")
	}
}
