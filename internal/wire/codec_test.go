package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"pandas/internal/blob"
	"pandas/internal/ids"
	"pandas/internal/kzg"
)

// paperCellBytes is the paper's cell payload size.
const paperCellBytes = 512

// paperSeed is a full seed datagram at the paper's geometry: the
// datagram cap of 512 B cells with proofs, as the builder sends them.
func paperSeed() *Seed {
	rng := rand.New(rand.NewSource(7))
	m := &Seed{Slot: 3, Builder: ids.NewTestIdentity(2).ID, ChunkIndex: 4, ChunkCount: 9}
	rng.Read(m.ProposerSig[:])
	rng.Read(m.Commitment[:])
	for i := 0; i < MaxCellsPerMessage; i++ {
		c := Cell{ID: blob.CellID{Row: uint16(rng.Intn(512)), Col: uint16(rng.Intn(512))}}
		c.Data = make([]byte, paperCellBytes)
		rng.Read(c.Data)
		rng.Read(c.Proof[:])
		m.Cells = append(m.Cells, c)
	}
	return m
}

// TestAppendEncodeMatchesEncode checks that encoding into a reused,
// dirty buffer larger than any datagram yields exactly Encode's bytes,
// and that AppendEncode keeps what dst already held.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	resp := &Response{Slot: 11}
	for i := 0; i < 7; i++ {
		resp.Cells = append(resp.Cells, randCell(rng))
	}
	seed := &Seed{Slot: 12, Builder: ids.NewTestIdentity(3).ID, ChunkCount: 1,
		Cells: []Cell{randCell(rng), randCell(rng)},
		Boost: []BoostEntry{{Line: blob.Line{Kind: blob.Col, Index: 9}, HolderRef: 1, Start: 2, Count: 3}}}
	msgs := []Message{
		seed,
		&Query{Slot: 13, Cells: []blob.CellID{{Row: 1, Col: 2}, {Row: 40, Col: 3}}},
		resp,
		&Hello{Slot: 14, Nonce: 5, Index: 6, Ready: true, Known: 7, DataAddr: "127.0.0.1:9", MetricsAddr: "m"},
	}
	dirty := make([]byte, 128<<10)
	for i := range dirty {
		dirty[i] = 0xA5
	}
	for _, m := range msgs {
		want, err := Encode(m, testCellBytes)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendEncode(dirty[:0], m, testCellBytes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%T: AppendEncode into a dirty buffer differs from Encode", m)
		}
		if &got[0] != &dirty[0] {
			t.Fatalf("%T: AppendEncode reallocated a buffer with room to spare", m)
		}
		prefix := []byte{1, 2, 3}
		got, err = AppendEncode(prefix, m, testCellBytes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
			t.Fatalf("%T: AppendEncode did not append after dst's contents", m)
		}
	}
	// An oversized message leaves dst as it was.
	big := &Query{Cells: make([]blob.CellID, MaxDatagram/4)}
	if got, err := AppendEncode(dirty[:5], big, testCellBytes); !errors.Is(err, ErrTooLarge) || len(got) != 5 {
		t.Fatalf("oversized: len %d, err %v", len(got), err)
	}
}

// TestDecodedCellsIsolated checks that decoded cells own their payloads:
// writing to or appending to one cell's Data changes neither its
// neighbours nor the datagram it was decoded from.
func TestDecodedCellsIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := &Response{Slot: 2}
	for i := 0; i < 3; i++ {
		m.Cells = append(m.Cells, randCell(rng))
	}
	data, err := Encode(m, testCellBytes)
	if err != nil {
		t.Fatal(err)
	}
	orig := bytes.Clone(data)
	msg, err := Decode(data, testCellBytes)
	if err != nil {
		t.Fatal(err)
	}
	cells := msg.(*Response).Cells
	for i := range cells {
		if cap(cells[i].Data) != testCellBytes {
			t.Fatalf("cell %d: cap %d, want %d", i, cap(cells[i].Data), testCellBytes)
		}
	}
	for i := range cells[0].Data {
		cells[0].Data[i] ^= 0xFF
	}
	grown := append(cells[0].Data, 0xEE, 0xEE, 0xEE)
	grown[0] = 0x11
	if !bytes.Equal(data, orig) {
		t.Fatal("mutating a decoded cell changed the input datagram")
	}
	for i := 1; i < len(cells); i++ {
		if !bytes.Equal(cells[i].Data, m.Cells[i].Data) {
			t.Fatalf("mutating cell 0 changed cell %d", i)
		}
	}
}

// TestDecodeRejectsInflatedCounts checks that an element count larger
// than the rest of the datagram can carry is rejected as truncated
// without sizing anything from the forged count.
func TestDecodeRejectsInflatedCounts(t *testing.T) {
	withCount := func(m Message, off int) []byte {
		data, err := Encode(m, testCellBytes)
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(data[off:], 1<<30)
		return data
	}
	seedHdr := 1 + 8 + ids.IDSize + SigSize + kzg.CommitmentSize + 4
	cases := map[string][]byte{
		"seed cells":     withCount(&Seed{Cells: []Cell{randCell(rand.New(rand.NewSource(1)))}}, seedHdr),
		"seed boost":     withCount(&Seed{Boost: []BoostEntry{{}}}, seedHdr+4),
		"query cells":    withCount(&Query{Cells: []blob.CellID{{}}}, 9),
		"response cells": withCount(&Response{Cells: []Cell{{}}}, 9),
	}
	for name, data := range cases {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Decode(data, testCellBytes); !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s: err = %v, want ErrTruncated", name, err)
			}
		})
		if allocs > 2 {
			t.Fatalf("%s: %v allocs rejecting an inflated count, want <= 2", name, allocs)
		}
	}
}

// BenchmarkAppendEncodeSeed encodes a paper-geometry seed datagram into
// a reused buffer, as the UDP transport does; gated at 0 allocs/op in
// scripts/bench.sh.
func BenchmarkAppendEncodeSeed(b *testing.B) {
	m := paperSeed()
	buf := make([]byte, 0, 64<<10)
	b.SetBytes(int64(m.WireSize(paperCellBytes) - OverheadIPUDP))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendEncode(buf[:0], m, paperCellBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeSeed decodes a paper-geometry seed datagram; gated at
// <= 3 allocs/op in scripts/bench.sh (message, cell slice, payload
// block).
func BenchmarkDecodeSeed(b *testing.B) {
	data, err := Encode(paperSeed(), paperCellBytes)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data, paperCellBytes); err != nil {
			b.Fatal(err)
		}
	}
}
