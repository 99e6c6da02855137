// Package ior implements PARDIS object references. A reference names
// an object (type id + object key) and carries the endpoints at which
// its server can be reached. For SPMD objects the reference holds one
// endpoint per computing thread — the multi-port profile of §3.3:
// "each computing thread of the SPMD object opens a network connection
// on a separate port. These connections become a part of object
// reference for this particular object and are accessible to clients
// wanting to connect."
//
// Endpoint 0 is always the communicator endpoint: the connection the
// centralized method uses exclusively, and over which multi-port
// invocations deliver their invocation header.
//
// References travel as stringified IORs — "IOR:" followed by the hex
// of a CDR encapsulation — exactly like CORBA object references, so
// they can be passed through naming services, command lines and
// environment variables.
package ior

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"pardis/internal/cdr"
)

// Errors returned by reference operations.
var (
	ErrBadRef = errors.New("ior: malformed object reference")
	ErrBadStr = errors.New("ior: malformed stringified IOR")
)

// Ref is a PARDIS object reference.
type Ref struct {
	// TypeID is the repository id of the object's interface, e.g.
	// "IDL:diffusion_object:1.0".
	TypeID string
	// Key names the object within its server ORB.
	Key string
	// Threads is the number of computing threads of the SPMD object
	// (1 for a conventional object).
	Threads int
	// Endpoints lists where the object is reachable. Endpoints[0] is
	// the communicator endpoint; when the server enables multi-port
	// transfer there is one endpoint per computing thread. A
	// conventional (Threads == 1) object may instead list several
	// endpoints — replica profiles of the same object, tried in order
	// by the client ORB's failover machinery.
	Endpoints []string
}

// Validate checks structural invariants.
func (r *Ref) Validate() error {
	if r.Key == "" {
		return fmt.Errorf("%w: empty object key", ErrBadRef)
	}
	if r.Threads < 1 {
		return fmt.Errorf("%w: thread count %d", ErrBadRef, r.Threads)
	}
	if len(r.Endpoints) == 0 {
		return fmt.Errorf("%w: no endpoints", ErrBadRef)
	}
	if r.Threads > 1 && len(r.Endpoints) != 1 && len(r.Endpoints) != r.Threads {
		return fmt.Errorf("%w: %d endpoints for %d threads (must be 1 or equal)",
			ErrBadRef, len(r.Endpoints), r.Threads)
	}
	for i, ep := range r.Endpoints {
		if !strings.Contains(ep, ":") {
			return fmt.Errorf("%w: endpoint %d = %q", ErrBadRef, i, ep)
		}
	}
	return nil
}

// IsSPMD reports whether the reference names a parallel object.
func (r *Ref) IsSPMD() bool { return r.Threads > 1 }

// MultiPort reports whether the reference carries one endpoint per
// computing thread, enabling multi-port argument transfer. A
// single-thread object is trivially multi-port capable: its
// endpoint doubles as the data port.
func (r *Ref) MultiPort() bool { return r.Threads == 1 || len(r.Endpoints) == r.Threads }

// Replicas returns the number of interchangeable endpoints a client
// may fail over between. SPMD references pin each thread to its own
// port, so only conventional objects carry replicas.
func (r *Ref) Replicas() int {
	if r.Threads == 1 {
		return len(r.Endpoints)
	}
	return 1
}

// FailoverEndpoints returns the endpoints an invocation may be issued
// at, in preference order. For a conventional object that is every
// replica endpoint; for an SPMD object invocations must target the
// communicator, so only its endpoint is returned.
func (r *Ref) FailoverEndpoints() []string {
	if r.Threads == 1 {
		return r.Endpoints
	}
	return r.Endpoints[:1]
}

// ThreadEndpoint returns the endpoint serving SPMD thread t, falling
// back to the communicator endpoint when the reference is not
// multi-port.
func (r *Ref) ThreadEndpoint(t int) string {
	if t >= 0 && t < len(r.Endpoints) {
		return r.Endpoints[t]
	}
	return r.Endpoints[0]
}

// Equal reports whether two references denote the same object at the
// same endpoints.
func (r *Ref) Equal(o *Ref) bool {
	if r.TypeID != o.TypeID || r.Key != o.Key || r.Threads != o.Threads ||
		len(r.Endpoints) != len(o.Endpoints) {
		return false
	}
	for i := range r.Endpoints {
		if r.Endpoints[i] != o.Endpoints[i] {
			return false
		}
	}
	return true
}

func (r *Ref) String() string {
	return fmt.Sprintf("Ref{%s key=%s threads=%d endpoints=%v}",
		r.TypeID, r.Key, r.Threads, r.Endpoints)
}

// Encode appends the reference to an encoder as a CDR encapsulation.
func (r *Ref) Encode(e *cdr.Encoder) {
	e.PutEncapsulation(e.Order(), func(ie *cdr.Encoder) {
		ie.PutString(r.TypeID)
		ie.PutString(r.Key)
		ie.PutULong(uint32(r.Threads))
		ie.PutStringSeq(r.Endpoints)
	})
}

// Decode reads a reference from a decoder.
func Decode(d *cdr.Decoder) (*Ref, error) {
	id, err := d.Encapsulation()
	if err != nil {
		return nil, err
	}
	var r Ref
	if r.TypeID, err = id.String(); err != nil {
		return nil, err
	}
	if r.Key, err = id.String(); err != nil {
		return nil, err
	}
	n, err := id.ULong()
	if err != nil {
		return nil, err
	}
	r.Threads = int(n)
	if r.Endpoints, err = id.StringSeq(); err != nil {
		return nil, err
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Stringify renders the reference in "IOR:<hex>" form.
func (r *Ref) Stringify() string {
	e := cdr.NewEncoder(cdr.BigEndian)
	r.Encode(e)
	return "IOR:" + hex.EncodeToString(e.Bytes())
}

// Parse decodes an "IOR:<hex>" string.
func Parse(s string) (*Ref, error) {
	if !strings.HasPrefix(s, "IOR:") {
		return nil, fmt.Errorf("%w: missing IOR: prefix", ErrBadStr)
	}
	raw, err := hex.DecodeString(s[4:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStr, err)
	}
	d := cdr.NewDecoder(cdr.BigEndian, raw)
	r, err := Decode(d)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStr, err)
	}
	return r, nil
}
