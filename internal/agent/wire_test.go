package agent

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/orb"
	"pardis/internal/transport"
)

// hugeCount is the largest count a ULong can announce.
const hugeCount = 1<<32 - 1

// TestRegisterHugeNameCountRefused: a register body that announces
// 2³²−1 names and then ends is refused as a protocol error, on the
// decoder and over the wire, without sizing an allocation by the
// count; the agent answers the next call.
func TestRegisterHugeNameCountRefused(t *testing.T) {
	body := func(e *cdr.Encoder) {
		e.PutString("inst-huge")
		e.PutULongLong(uint64(time.Minute / time.Microsecond))
		encodeLoad(e, LoadReport{})
		e.PutULong(hugeCount)
	}
	e := cdr.NewEncoder(cdr.BigEndian)
	body(e)
	if _, err := decodeRegistration(cdr.NewDecoder(cdr.BigEndian, e.Bytes())); !errors.Is(err, ErrProtocol) {
		t.Fatalf("decodeRegistration = %v, want ErrProtocol", err)
	}

	tbl, ac := newWireFixture(t)
	ctx := context.Background()
	if _, err := ac.invoke(ctx, "register", body); err == nil {
		t.Fatal("register with a 2^32-1 name count accepted")
	}
	if err := ac.Register(ctx, Registration{Instance: "inst-ok", TTL: time.Minute,
		Names: []NameRef{{Name: "svc/ok", Ref: convRef("ok", "inproc:a")}}}); err != nil {
		t.Fatalf("next register: %v", err)
	}
	if _, _, err := tbl.Resolve("svc/ok"); err != nil {
		t.Fatalf("resolve after the refused register: %v", err)
	}
}

// TestListHugeRowCountRefused: a list reply that announces 2³²−1 rows
// and then ends is a protocol error at the client, not an allocation
// sized by the count.
func TestListHugeRowCountRefused(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := orb.NewServer(reg)
	srv.Handle(ServiceKey, func(in *orb.Incoming) {
		_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutULong(hugeCount) })
	})
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	oc := orb.NewClient(reg, orb.WithDefaultDeadline(2*time.Second))
	t.Cleanup(func() { oc.Close(); srv.Close() })
	if _, err := NewClient(oc, ep).List(context.Background(), ""); !errors.Is(err, ErrProtocol) {
		t.Fatalf("List = %v, want ErrProtocol", err)
	}
}

// fuzzRegistration is a valid registration carrying every wire field.
func fuzzRegistration() Registration {
	return Registration{
		Instance: "inst-a",
		TTL:      6 * time.Second,
		Load:     LoadReport{AdmissionRunning: 2, AdmissionQueued: 7, MaxConcurrent: 8, MaxQueue: 64, Inflight: 3, SPMDLeases: 1, Draining: true},
		Names: []NameRef{
			{Name: "svc/a", Ref: convRef("a", "tcp:127.0.0.1:9000")},
			{Name: "svc/b", Ref: convRef("b", "inproc:b", "inproc:c")},
		},
		Digest: MetricsDigest{
			Requests: 10, Errors: 1, SPMDLeasesExpired: 2, SPMDShed: 3, LatencySum: 0.25,
			Buckets:   []uint64{1, 2, 3},
			Exemplars: []TailExemplar{{Bucket: 2, Value: 0.1, TraceID: 42, When: time.UnixMicro(1_700_000_000_000_000)}},
		},
	}
}

// FuzzDecodeRegistration feeds arbitrary register bodies to the
// decoder the agent runs on every heartbeat: it must return, not panic
// or allocate by an announced count, and whatever it accepts must
// encode to a body it accepts again with the same names.
func FuzzDecodeRegistration(f *testing.F) {
	for _, r := range []Registration{{Instance: "i"}, fuzzRegistration()} {
		e := cdr.NewEncoder(cdr.BigEndian)
		encodeRegistration(e, r)
		f.Add(e.Bytes())
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := decodeRegistration(cdr.NewDecoder(cdr.BigEndian, body))
		if err != nil {
			return
		}
		e := cdr.NewEncoder(cdr.BigEndian)
		encodeRegistration(e, r)
		again, err := decodeRegistration(cdr.NewDecoder(cdr.BigEndian, e.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded registration refused: %v", err)
		}
		if len(again.Names) != len(r.Names) || again.Instance != r.Instance {
			t.Fatalf("re-encoded registration changed: %+v, was %+v", again, r)
		}
	})
}

// FuzzDecodeSnapshot does the same for the peer-sync snapshot an agent
// decodes from every peer reply.
func FuzzDecodeSnapshot(f *testing.F) {
	reg := fuzzRegistration()
	for _, s := range []SyncSnapshot{{}, {
		Entries: []SyncEntry{
			{Name: "svc/a", Instance: "inst-a", Ref: reg.Names[0].Ref, Load: reg.Load, Age: 1500 * time.Microsecond, TTL: 6 * time.Second},
			{Name: "svc/b", Instance: "inst-b", Ref: reg.Names[1].Ref, TTL: time.Second},
		},
		Tombs: []SyncTombstone{{Instance: "inst-c", Age: time.Millisecond, TTL: 6 * time.Second}},
	}} {
		e := cdr.NewEncoder(cdr.BigEndian)
		encodeSnapshot(e, s)
		f.Add(e.Bytes())
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := decodeSnapshot(cdr.NewDecoder(cdr.BigEndian, body))
		if err != nil {
			return
		}
		e := cdr.NewEncoder(cdr.BigEndian)
		encodeSnapshot(e, s)
		again, err := decodeSnapshot(cdr.NewDecoder(cdr.BigEndian, e.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded snapshot refused: %v", err)
		}
		if len(again.Entries) != len(s.Entries) || len(again.Tombs) != len(s.Tombs) {
			t.Fatalf("re-encoded snapshot changed: %d entries, %d tombs, was %d, %d",
				len(again.Entries), len(again.Tombs), len(s.Entries), len(s.Tombs))
		}
		var e2 = cdr.NewEncoder(cdr.BigEndian)
		encodeSnapshot(e2, again)
		if !bytes.Equal(e2.Bytes(), e.Bytes()) {
			t.Fatal("a snapshot's encoding does not survive a decode")
		}
	})
}
