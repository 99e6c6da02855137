package ior

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"pardis/internal/cdr"
)

func sampleRef() *Ref {
	return &Ref{
		TypeID:  "IDL:diffusion_object:1.0",
		Key:     "objects/example",
		Threads: 4,
		Endpoints: []string{
			"tcp:10.0.0.1:9000",
			"tcp:10.0.0.1:9001",
			"tcp:10.0.0.1:9002",
			"tcp:10.0.0.1:9003",
		},
	}
}

func TestValidate(t *testing.T) {
	r := sampleRef()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Ref{
		{TypeID: "t", Key: "", Threads: 1, Endpoints: []string{"tcp:a:1"}},
		{TypeID: "t", Key: "k", Threads: 0, Endpoints: []string{"tcp:a:1"}},
		{TypeID: "t", Key: "k", Threads: 1, Endpoints: nil},
		{TypeID: "t", Key: "k", Threads: 3, Endpoints: []string{"tcp:a:1", "tcp:a:2"}},
		{TypeID: "t", Key: "k", Threads: 1, Endpoints: []string{"noscheme"}},
	}
	for i, r := range bad {
		if err := r.Validate(); !errors.Is(err, ErrBadRef) {
			t.Fatalf("bad ref %d accepted: %v", i, err)
		}
	}
}

func TestSPMDAndMultiPort(t *testing.T) {
	r := sampleRef()
	if !r.IsSPMD() || !r.MultiPort() {
		t.Fatal("4-endpoint 4-thread ref must be SPMD and multi-port")
	}
	central := &Ref{TypeID: "t", Key: "k", Threads: 4, Endpoints: []string{"tcp:a:1"}}
	if !central.IsSPMD() || central.MultiPort() {
		t.Fatal("single-endpoint SPMD ref must not be multi-port")
	}
	plain := &Ref{TypeID: "t", Key: "k", Threads: 1, Endpoints: []string{"tcp:a:1"}}
	if plain.IsSPMD() {
		t.Fatal("plain ref misclassified as SPMD")
	}
	if !plain.MultiPort() {
		t.Fatal("a single-thread object is trivially multi-port capable")
	}
}

func TestThreadEndpoint(t *testing.T) {
	r := sampleRef()
	if r.ThreadEndpoint(2) != "tcp:10.0.0.1:9002" {
		t.Fatalf("thread endpoint = %q", r.ThreadEndpoint(2))
	}
	central := &Ref{TypeID: "t", Key: "k", Threads: 4, Endpoints: []string{"tcp:a:1"}}
	if central.ThreadEndpoint(3) != "tcp:a:1" {
		t.Fatal("fallback to communicator endpoint broken")
	}
}

func TestStringifyParseRoundTrip(t *testing.T) {
	r := sampleRef()
	s := r.Stringify()
	if !strings.HasPrefix(s, "IOR:") {
		t.Fatalf("stringified = %q", s)
	}
	got, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Fatalf("round trip: %v != %v", got, r)
	}
}

func TestEncodeDecodeInsideStream(t *testing.T) {
	r := sampleRef()
	e := cdr.NewEncoder(cdr.LittleEndian)
	e.PutLong(42)
	r.Encode(e)
	e.PutLong(43)
	d := cdr.NewDecoder(cdr.LittleEndian, e.Bytes())
	if v, _ := d.Long(); v != 42 {
		t.Fatal("prefix")
	}
	got, err := Decode(d)
	if err != nil || !got.Equal(r) {
		t.Fatalf("decode: %v %v", got, err)
	}
	if v, _ := d.Long(); v != 43 {
		t.Fatal("suffix")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"NOTANIOR",
		"IOR:zz",       // bad hex
		"IOR:00",       // truncated encapsulation
		"IOR:deadbeef", // garbage
	}
	for _, s := range cases {
		if _, err := Parse(s); !errors.Is(err, ErrBadStr) {
			t.Fatalf("Parse(%q) = %v", s, err)
		}
	}
}

func TestParseRejectsInvalidRef(t *testing.T) {
	// A structurally decodable ref that fails Validate (bad thread
	// count) must be rejected at parse time.
	r := &Ref{TypeID: "t", Key: "k", Threads: 1, Endpoints: []string{"tcp:a:1"}}
	e := cdr.NewEncoder(cdr.BigEndian)
	// Hand-encode with a zero thread count.
	e.PutEncapsulation(cdr.BigEndian, func(ie *cdr.Encoder) {
		ie.PutString(r.TypeID)
		ie.PutString(r.Key)
		ie.PutULong(0)
		ie.PutStringSeq(r.Endpoints)
	})
	s := "IOR:" + hexEncode(e.Bytes())
	if _, err := Parse(s); !errors.Is(err, ErrBadStr) {
		t.Fatalf("invalid ref parsed: %v", err)
	}
}

func hexEncode(b []byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, len(b)*2)
	for _, x := range b {
		out = append(out, digits[x>>4], digits[x&0xF])
	}
	return string(out)
}

// Property: every valid reference survives stringify/parse.
func TestQuickStringifyRoundTrip(t *testing.T) {
	f := func(typeID, key string, threads uint8, host string, multi bool) bool {
		typeID = sanitize(typeID)
		key = sanitize(key)
		host = sanitize(host)
		if key == "" {
			key = "k"
		}
		if host == "" {
			host = "h"
		}
		n := int(threads%8) + 1
		eps := []string{"tcp:" + host + ":1"}
		if multi && n > 1 {
			eps = make([]string, n)
			for i := range eps {
				eps[i] = "tcp:" + host + ":" + string(rune('1'+i))
			}
		}
		r := &Ref{TypeID: typeID, Key: key, Threads: n, Endpoints: eps}
		if err := r.Validate(); err != nil {
			return false
		}
		got, err := Parse(r.Stringify())
		return err == nil && got.Equal(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r > 0 && r < 128 && r != ':' {
			b.WriteRune(r)
		}
	}
	return b.String()
}
