package agent

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/orb"
	"pardis/internal/telemetry"
)

// Wire layout notes: the agent's operations are IDL-style CDR bodies,
// like the naming service's. A LoadReport travels as seven ULongs and
// a boolean in declaration order; a Registration as instance string,
// TTL in microseconds (ULongLong), the LoadReport, a ULong-counted
// sequence of (name string, stringified IOR) pairs, then the metrics
// digest: requests/errors/spmd-leases-expired/spmd-shed (ULongLongs),
// latency sum (Double), a ULong-counted bucket vector (ULongLongs),
// and a ULong-counted exemplar sequence of (bucket ULong, value
// Double, trace id ULongLong, capture time in unix microseconds
// ULongLong).

func encodeLoad(e *cdr.Encoder, lr LoadReport) {
	e.PutULong(uint32(lr.AdmissionRunning))
	e.PutULong(uint32(lr.AdmissionQueued))
	e.PutULong(uint32(lr.MaxConcurrent))
	e.PutULong(uint32(lr.MaxQueue))
	e.PutULong(uint32(lr.Inflight))
	e.PutULong(uint32(lr.SPMDLeases))
	e.PutULong(uint32(lr.BreakersOpen))
	e.PutBoolean(lr.Draining)
}

func decodeLoad(d *cdr.Decoder) (LoadReport, error) {
	var lr LoadReport
	fields := []*int{
		&lr.AdmissionRunning, &lr.AdmissionQueued,
		&lr.MaxConcurrent, &lr.MaxQueue,
		&lr.Inflight, &lr.SPMDLeases, &lr.BreakersOpen,
	}
	for _, f := range fields {
		v, err := d.ULong()
		if err != nil {
			return lr, err
		}
		*f = int(v)
	}
	var err error
	lr.Draining, err = d.Boolean()
	return lr, err
}

func encodeDigest(e *cdr.Encoder, d MetricsDigest) {
	e.PutULongLong(d.Requests)
	e.PutULongLong(d.Errors)
	e.PutULongLong(d.SPMDLeasesExpired)
	e.PutULongLong(d.SPMDShed)
	e.PutDouble(d.LatencySum)
	e.PutULong(uint32(len(d.Buckets)))
	for _, c := range d.Buckets {
		e.PutULongLong(c)
	}
	e.PutULong(uint32(len(d.Exemplars)))
	for _, ex := range d.Exemplars {
		e.PutULong(uint32(ex.Bucket))
		e.PutDouble(ex.Value)
		e.PutULongLong(ex.TraceID)
		e.PutULongLong(uint64(ex.When.UnixMicro()))
	}
}

func decodeDigest(d *cdr.Decoder) (MetricsDigest, error) {
	var md MetricsDigest
	var err error
	for _, f := range []*uint64{&md.Requests, &md.Errors, &md.SPMDLeasesExpired, &md.SPMDShed} {
		if *f, err = d.ULongLong(); err != nil {
			return md, err
		}
	}
	if md.LatencySum, err = d.Double(); err != nil {
		return md, err
	}
	n, err := d.ULong()
	if err != nil {
		return md, err
	}
	// A digest's bucket vector is DefaultLatencyBuckets+Inf or empty;
	// cap defensively so a corrupt count cannot balloon the alloc.
	if n > 1024 {
		return md, fmt.Errorf("%w: digest bucket count %d", ErrProtocol, n)
	}
	if n > 0 {
		md.Buckets = make([]uint64, n)
		for i := range md.Buckets {
			if md.Buckets[i], err = d.ULongLong(); err != nil {
				return md, err
			}
		}
	}
	ne, err := d.ULong()
	if err != nil {
		return md, err
	}
	if ne > 1024 {
		return md, fmt.Errorf("%w: digest exemplar count %d", ErrProtocol, ne)
	}
	for i := uint32(0); i < ne; i++ {
		var ex TailExemplar
		b, err := d.ULong()
		if err != nil {
			return md, err
		}
		ex.Bucket = int(b)
		if ex.Value, err = d.Double(); err != nil {
			return md, err
		}
		if ex.TraceID, err = d.ULongLong(); err != nil {
			return md, err
		}
		micros, err := d.ULongLong()
		if err != nil {
			return md, err
		}
		ex.When = time.UnixMicro(int64(micros))
		md.Exemplars = append(md.Exemplars, ex)
	}
	return md, nil
}

// A SyncSnapshot travels as a ULong-counted entry sequence — name,
// instance, stringified IOR, LoadReport, renewal age and TTL in
// microseconds (ULongLongs) — then a ULong-counted tombstone sequence
// of (instance, age, ttl). Ages are relative to the sender's clock at
// snapshot time, so the merge is wall-clock-skew-free.

// syncMaxRows caps decoded snapshot sequences so a corrupt count
// cannot balloon the alloc.
const syncMaxRows = 1 << 20

// ageMicros rounds an age UP to whole microseconds: the wire must only
// ever make a row look older, never newer, or a snapshot bounced
// between two agents would gain a sliver of life per round trip.
func ageMicros(d time.Duration) uint64 {
	return uint64((d + time.Microsecond - 1) / time.Microsecond)
}

// maxWireMicros is the longest duration, in microseconds, a snapshot
// or registration may carry: a longer one overflows a time.Duration, or
// rounds past it when re-encoded (ageMicros).
const maxWireMicros = (1<<63 - 1 - 999) / 1000

// durationMicros decodes a duration sent in microseconds, refusing one
// a time.Duration cannot hold.
func durationMicros(d *cdr.Decoder, what string) (time.Duration, error) {
	us, err := d.ULongLong()
	if err != nil {
		return 0, err
	}
	if us > maxWireMicros {
		return 0, fmt.Errorf("%w: %s of %d µs", ErrProtocol, what, us)
	}
	return time.Duration(us) * time.Microsecond, nil
}

func encodeSnapshot(e *cdr.Encoder, s SyncSnapshot) {
	e.PutULong(uint32(len(s.Entries)))
	for _, en := range s.Entries {
		e.PutString(en.Name)
		e.PutString(en.Instance)
		e.PutString(en.Ref.Stringify())
		encodeLoad(e, en.Load)
		e.PutULongLong(ageMicros(en.Age))
		e.PutULongLong(uint64(en.TTL / time.Microsecond))
	}
	e.PutULong(uint32(len(s.Tombs)))
	for _, tb := range s.Tombs {
		e.PutString(tb.Instance)
		e.PutULongLong(ageMicros(tb.Age))
		e.PutULongLong(uint64(tb.TTL / time.Microsecond))
	}
}

func decodeSnapshot(d *cdr.Decoder) (SyncSnapshot, error) {
	var s SyncSnapshot
	n, err := d.ULong()
	if err != nil {
		return s, err
	}
	if n > syncMaxRows {
		return s, fmt.Errorf("%w: sync entry count %d", ErrProtocol, n)
	}
	for i := uint32(0); i < n; i++ {
		var en SyncEntry
		if en.Name, err = d.String(); err != nil {
			return s, err
		}
		if en.Instance, err = d.String(); err != nil {
			return s, err
		}
		iorStr, err := d.String()
		if err != nil {
			return s, err
		}
		if en.Ref, err = ior.Parse(iorStr); err != nil {
			return s, err
		}
		if en.Load, err = decodeLoad(d); err != nil {
			return s, err
		}
		if en.Age, err = durationMicros(d, "age"); err != nil {
			return s, err
		}
		if en.TTL, err = durationMicros(d, "TTL"); err != nil {
			return s, err
		}
		s.Entries = append(s.Entries, en)
	}
	nt, err := d.ULong()
	if err != nil {
		return s, err
	}
	if nt > syncMaxRows {
		return s, fmt.Errorf("%w: sync tombstone count %d", ErrProtocol, nt)
	}
	for i := uint32(0); i < nt; i++ {
		var tb SyncTombstone
		if tb.Instance, err = d.String(); err != nil {
			return s, err
		}
		if tb.Age, err = durationMicros(d, "age"); err != nil {
			return s, err
		}
		if tb.TTL, err = durationMicros(d, "TTL"); err != nil {
			return s, err
		}
		s.Tombs = append(s.Tombs, tb)
	}
	return s, nil
}

func encodeRegistration(e *cdr.Encoder, r Registration) {
	e.PutString(r.Instance)
	e.PutULongLong(uint64(r.TTL / time.Microsecond))
	encodeLoad(e, r.Load)
	e.PutULong(uint32(len(r.Names)))
	for _, nr := range r.Names {
		e.PutString(nr.Name)
		e.PutString(nr.Ref.Stringify())
	}
	encodeDigest(e, r.Digest)
}

func decodeRegistration(d *cdr.Decoder) (Registration, error) {
	var r Registration
	var err error
	if r.Instance, err = d.String(); err != nil {
		return r, err
	}
	if r.TTL, err = durationMicros(d, "TTL"); err != nil {
		return r, err
	}
	if r.Load, err = decodeLoad(d); err != nil {
		return r, err
	}
	n, err := d.ULong()
	if err != nil {
		return r, err
	}
	// Each name takes at least a byte of the body: a count beyond what
	// is left is corrupt, and must not size an allocation.
	if uint64(n) > uint64(d.Remaining()) {
		return r, fmt.Errorf("%w: %d names in a %d-byte remainder", ErrProtocol, n, d.Remaining())
	}
	r.Names = make([]NameRef, 0, n)
	for i := uint32(0); i < n; i++ {
		name, err := d.String()
		if err != nil {
			return r, err
		}
		iorStr, err := d.String()
		if err != nil {
			return r, err
		}
		ref, err := ior.Parse(iorStr)
		if err != nil {
			return r, err
		}
		r.Names = append(r.Names, NameRef{Name: name, Ref: ref})
	}
	if r.Digest, err = decodeDigest(d); err != nil {
		return r, err
	}
	return r, nil
}

// Serve installs the agent service on an ORB server under ServiceKey,
// backed by t.
func Serve(srv *orb.Server, t *Table) {
	srv.Handle(ServiceKey, func(in *orb.Incoming) {
		d := in.Decoder()
		switch in.Header.Operation {
		case "register":
			r, err := decodeRegistration(d)
			if err != nil {
				_ = in.ReplySystemException("MARSHAL", "bad register body: "+err.Error())
				return
			}
			if err := t.Register(r); err != nil {
				replyUserError(in, err)
				return
			}
			if telemetry.LogEnabled(slog.LevelDebug) {
				telemetry.Logger().Debug("agent: heartbeat",
					"instance", r.Instance, "names", len(r.Names), "ttl", r.TTL)
			}
			_ = in.Reply(giop.ReplyOK, nil)
		case "deregister":
			instance, err := d.String()
			if err != nil {
				_ = in.ReplySystemException("MARSHAL", "bad deregister body")
				return
			}
			t.Deregister(instance)
			_ = in.Reply(giop.ReplyOK, nil)
		case "resolve":
			name, err := d.String()
			if err != nil {
				_ = in.ReplySystemException("MARSHAL", "bad resolve body")
				return
			}
			ref, replicas, err := t.Resolve(name)
			if err != nil {
				replyUserError(in, err)
				return
			}
			_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) {
				e.PutString(ref.Stringify())
				e.PutULong(uint32(replicas))
			})
		case "sync":
			// Peer-sync exchange: fold the caller's snapshot in, answer
			// with ours taken after the merge, so one round converges
			// both sides on the union.
			remote, err := decodeSnapshot(d)
			if err != nil {
				_ = in.ReplySystemException("MARSHAL", "bad sync body: "+err.Error())
				return
			}
			t.Merge(remote)
			local := t.Snapshot()
			_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) {
				encodeSnapshot(e, local)
			})
		case "list":
			prefix, err := d.String()
			if err != nil {
				_ = in.ReplySystemException("MARSHAL", "bad list body")
				return
			}
			rows := t.List(prefix)
			names := make([]string, 0, len(rows))
			for name := range rows {
				names = append(names, name)
			}
			sort.Strings(names)
			_ = in.Reply(giop.ReplyOK, func(e *cdr.Encoder) {
				e.PutULong(uint32(len(names)))
				for _, name := range names {
					e.PutString(name)
					reps := rows[name]
					e.PutULong(uint32(len(reps)))
					for _, rep := range reps {
						e.PutString(rep.Instance)
						e.PutString(rep.Ref.Stringify())
						e.PutDouble(rep.Score)
						e.PutBoolean(rep.Draining)
						e.PutULongLong(uint64(rep.SinceSeen / time.Microsecond))
					}
				}
			})
		default:
			_ = in.ReplySystemException("BAD_OPERATION", in.Header.Operation)
		}
	})
}

// replyUserError maps table errors onto user exceptions with a
// machine-readable code string (the naming service's convention).
func replyUserError(in *orb.Incoming, err error) {
	code := "UNKNOWN"
	if errors.Is(err, ErrNotFound) {
		code = "NotFound"
	}
	msg := err.Error()
	_ = in.Reply(giop.ReplyUserException, func(e *cdr.Encoder) {
		e.PutString(code)
		e.PutString(msg)
	})
}
