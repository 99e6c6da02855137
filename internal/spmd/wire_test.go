package spmd

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/giop"
)

// The three SPMD wires (invocation body, describe reply, control
// broadcast) are hand-written encode/decode pairs between peers of one
// build. Each round-trip test encodes, decodes and re-encodes: any field
// added to one half of a codec only shows up as differing bytes.

// wireRecorder is what a metered connection sees of frame writes: the
// bytes, and how many gather writes carried them.
type wireRecorder struct {
	bytes.Buffer
	writes int
}

func (r *wireRecorder) WriteBuffers(v *net.Buffers) (int64, error) {
	r.writes++
	return v.WriteTo(&r.Buffer)
}

// gathered encodes a message body the way the ORB sends one — a pooled
// encoder in order, whose PutDoublesRef splices element blocks, written
// by giop.WriteEncoded — and returns the body bytes as the connection
// received them, with the number of blocks that were spliced.
func gathered(t *testing.T, order cdr.ByteOrder, encode func(*cdr.Encoder)) ([]byte, int) {
	t.Helper()
	e := giop.AcquireEncoder(order)
	defer e.Release()
	encode(e.Encoder)
	var rec wireRecorder
	if err := giop.WriteEncoded(&rec, giop.MsgRequest, e.Encoder); err != nil {
		t.Fatal(err)
	}
	if rec.writes != 1 {
		t.Fatalf("one message took %d gather writes", rec.writes)
	}
	return rec.Bytes()[giop.HeaderLen:], len(e.Splices())
}

// roundTrip checks encode(decode(encode(v))) == encode(v) in both byte
// orders, on the bytes the gather writer puts on the wire.
func roundTrip(t *testing.T, name string, encode func(*cdr.Encoder),
	recode func(*cdr.Decoder) (func(*cdr.Encoder), error)) {
	t.Helper()
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		want, _ := gathered(t, order, encode)
		d := cdr.NewDecoder(order, want)
		again, err := recode(d)
		if err != nil {
			t.Fatalf("%s (order %v): decode: %v", name, order, err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("%s (order %v): decoder left %d bytes unread", name, order, d.Remaining())
		}
		if got, _ := gathered(t, order, again); !bytes.Equal(got, want) {
			t.Fatalf("%s (order %v): re-encoded bytes differ\n got %x\nwant %x", name, order, got, want)
		}
	}
}

// TestInvocationWireRoundTrip also pins the layout of a body with two
// inline arguments: every argument's metadata, each ending in its
// element count, then each argument's elements, 8-aligned.
func TestInvocationWireRoundTrip(t *testing.T) {
	twoInline := &invocationWire{Method: Centralized, Scalars: []byte{1}, Args: []*argWire{
		{Mode: In, Length: 3, ClientCounts: []int{3}, Blocks: [][]float64{{1.5, -2}, {3}}},
		{Mode: InOut, Length: 2, ClientCounts: []int{1, 1}, Blocks: [][]float64{{4}, {5}}},
	}}
	want, _ := hex.DecodeString("" +
		"00000000" + "00000001" + "01000000" + "00000002" + // method, scalars, 2 arguments
		"00000000" + "00000003" + "00000001" + "00000003" + "00000000" + "01000000" + "00000003" + // in, 3, [3], no endpoints, 3 inline
		"02000000" + "00000002" + "00000002" + "00000001" + "00000001" + "00000000" + "01000000" + "00000002" + // inout, 2, [1 1], no endpoints, 2 inline
		"00000000" + // pad to 8
		"3ff8000000000000" + "c000000000000000" + "4008000000000000" + // 1.5, -2, 3
		"4010000000000000" + "4014000000000000") // 4, 5
	if got, _ := gathered(t, cdr.BigEndian, twoInline.encode); !bytes.Equal(got, want) {
		t.Fatalf("two inline arguments:\n got %x\nwant %x", got, want)
	}
	cases := map[string]*invocationWire{
		"two inline arguments": twoInline,
		"empty":                {Method: Centralized},
		"multi-port": {Method: MultiPort, Scalars: []byte{0, 1, 2, 3}, Args: []*argWire{
			{Mode: In, Length: 10, ClientCounts: []int{5, 5}},
			{Mode: InOut, Length: 7, ClientCounts: []int{3, 4},
				ClientEndpoints: []string{"inproc:a", "tcp:127.0.0.1:9"}},
		}},
		"centralized": {Method: Centralized, Scalars: []byte{1}, Args: []*argWire{
			{Mode: In, Length: 3, ClientCounts: []int{2, 1}, Blocks: [][]float64{{1.5, -2}, {3}}},
			{Mode: Out, Length: 4, ClientCounts: []int{4}},
			{Mode: InOut, Length: 5, ClientCounts: []int{0, 2, 0, 3},
				Blocks: [][]float64{nil, {4, 5}, {}, {6, 7, 8}}},
		}},
	}
	for name, w := range cases {
		roundTrip(t, name, w.encode, func(d *cdr.Decoder) (func(*cdr.Encoder), error) {
			body, _ := d.Octets(d.Remaining())
			got, err := decodeInvocation(d.Order(), body, 0)
			if err != nil {
				return nil, err
			}
			// The metadata decodes to inline counts, and the elements after
			// it encode from Blocks: walk them into one block per argument.
			blocks := make([][][]float64, len(got.Args))
			for i, a := range got.Args {
				if a.Inline > 0 {
					blocks[i] = [][]float64{make([]float64, a.Inline)}
					a.Blocks = blocks[i]
				}
			}
			end, _ := got.walk(blocks, func(off int, blk []float64) error {
				cdr.DecodeDoubles(blk, body[off:], d.Order())
				return nil
			})
			if end != len(body) {
				return nil, fmt.Errorf("the elements end at %d of a %d-byte body", end, len(body))
			}
			return got.encode, nil
		})
	}
}

func TestDescribeWireRoundTrip(t *testing.T) {
	prop, err := dist.Proportions(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	expl, err := dist.Explicit(4, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*describeWire{
		"no ops": {Threads: 1, Ops: map[string]*OpSpec{}},
		"ops": {Threads: 3, MultiPort: true, Ops: map[string]*OpSpec{
			"scalar only": {Args: []ArgSpec{}},
			"diffusion":   {Args: []ArgSpec{{Mode: InOut, Dist: dist.Block()}}},
			"mixed": {Args: []ArgSpec{
				{Mode: In, Dist: prop}, {Mode: Out, Dist: expl}, {Mode: InOut, Dist: dist.Block()},
			}},
		}},
	}
	for name, w := range cases {
		roundTrip(t, name, w.encode, func(d *cdr.Decoder) (func(*cdr.Encoder), error) {
			got, err := decodeDescribeWire(d)
			if err != nil {
				return nil, err
			}
			return got.encode, nil
		})
	}
}

func TestControlRoundTrip(t *testing.T) {
	cases := map[string]*control{
		"shutdown": {OK: false},
		"error":    {OK: true, Op: "op", ErrMsg: "boom"},
		"invocation": {OK: true, Op: "diffusion", Inv: 0xABCDE12345, Method: MultiPort,
			DeadlineMicros: 1500, Scalars: []byte{0, 9, 8},
			Args: []controlArg{
				{Mode: In, Length: 10, ClientCounts: []int{5, 5}},
				{Mode: InOut, Length: 7, ClientCounts: []int{3, 4},
					ClientEndpoints: []string{"inproc:a", "inproc:b"}},
			}},
	}
	for name, c := range cases {
		roundTrip(t, name, c.encode, func(d *cdr.Decoder) (func(*cdr.Encoder), error) {
			got, err := decodeControl(d)
			if err != nil {
				return nil, err
			}
			return got.encode, nil
		})
	}
}

// TestInvocationArgumentCountBounded: a 1 MiB body that claims 2^20
// arguments is refused before anything is allocated for them, so the
// forged count costs the server less than the body it sent.
func TestInvocationArgumentCountBounded(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.PutOctet(byte(Centralized))
	e.PutOctetSeq(nil)
	e.PutULong(1 << 20)
	body := append(e.Bytes(), make([]byte, 1<<20)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeInvocation(cdr.BigEndian, body, 0)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadCall) {
		t.Fatalf("decode: %v, want ErrBadCall", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(len(body)) {
		t.Fatalf("refusing %d claimed arguments allocated %d B, body %d B", 1<<20, grew, len(body))
	}
}
