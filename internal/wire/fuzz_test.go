package wire

import (
	"bytes"
	"reflect"
	"testing"

	"pandas/internal/blob"
)

// FuzzDecode exercises the datagram decoder with arbitrary inputs: it
// must never panic, and anything it accepts must round-trip: Encode of
// the decoded message succeeds for any input that fits a datagram,
// decodes back to the same message, and, for the canonical protocol
// messages (Seed, Query, Response), reproduces the input's bytes up to
// any trailing bytes Decode ignored.
func FuzzDecode(f *testing.F) {
	// Seed corpus: one valid message of each type plus junk.
	q := &Query{Slot: 3, Cells: make([]blob.CellID, 2)}
	if data, err := Encode(q, 64); err == nil {
		f.Add(data)
	}
	r := &Response{Slot: 4, Cells: []Cell{{Data: make([]byte, 64)}}}
	if data, err := Encode(r, 64); err == nil {
		f.Add(data)
	}
	s := &Seed{Slot: 5, ChunkCount: 1}
	if data, err := Encode(s, 64); err == nil {
		f.Add(data)
	}
	// Swarm control/discovery messages (control.go).
	for _, m := range controlMessages() {
		if data, err := Encode(m, 64); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data, 64)
		if err != nil {
			return
		}
		re, err := Encode(msg, 64)
		if err != nil {
			if len(data) <= MaxDatagram {
				t.Fatalf("decoded %T does not re-encode: %v", msg, err)
			}
			return
		}
		switch msg.(type) {
		case *Seed, *Query, *Response:
			if !bytes.HasPrefix(data, re) {
				t.Fatalf("%T: Encode(Decode(x)) is not a prefix of x", msg)
			}
		}
		msg2, err := Decode(re, 64)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("%T: decode/encode/decode changed the message", msg)
		}
	})
}
