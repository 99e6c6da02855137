package spmd

import (
	"bytes"
	"net"
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

func TestInvocationWireRoundTrip(t *testing.T) {
	cases := map[string]*invocationWire{
		"empty": {Method: Centralized},
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
			got, err := decodeInvocationWire(d)
			if err != nil {
				return nil, err
			}
			// Inline data decodes to Raw (aliasing the frame) and encodes
			// from Blocks: carry it across as one block.
			for _, a := range got.Args {
				if len(a.Raw) > 0 {
					blk := make([]float64, len(a.Raw)/8)
					decodeDoubleBlocks([][]float64{blk}, a.Raw, got.order)
					a.Blocks = [][]float64{blk}
				}
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
