package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pandas/internal/blob"
	"pandas/internal/kzg"
	"pandas/internal/wire"
)

// replayLayers times the builder's prepare stages, one line
// reconstruction and the wire codec on the run's own inputs, through the
// public functions the builder and nodes call, and checks their outputs.
func replayLayers(res *runResult, p blob.Params, data []byte, msgs [numMsgKinds][]wire.Message) error {
	reps := 5
	if p.K >= 128 {
		reps = 3
	}
	n := p.N()
	var ext *blob.Extended
	cm := kzg.NewCommitter(n)
	proofs := make([]kzg.Proof, n*n)
	var extend, commit, prove []float64
	var root kzg.Commitment
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		e, err := blob.ExtendData(p, data, blob.ExtendOptions{Reuse: ext})
		if err != nil {
			return fmt.Errorf("replay extend: %w", err)
		}
		ext = e
		t1 := time.Now()
		cm.Reset(n)
		for r := 0; r < n; r++ {
			cm.HashRow(r, ext.RowBytes(r), p.CellBytes)
		}
		root = cm.Root()
		t2 := time.Now()
		cm.ProveAll(root, proofs, runtime.GOMAXPROCS(0), nil)
		t3 := time.Now()
		extend = append(extend, ms(t1.Sub(t0)))
		commit = append(commit, ms(t2.Sub(t1)))
		prove = append(prove, ms(t3.Sub(t2)))
	}
	res.check(root == kzg.Commit(ext), "replayed commitment differs from kzg.Commit")
	id := blob.CellID{Row: uint16(n - 1), Col: uint16(n / 3)}
	res.check(kzg.Verify(root, id, ext.Cell(id), proofs[id.Index(n)]), "replayed proof of %v does not verify", id)
	m := res.metrics
	m["ecc.extend_ms"] = median(extend)
	m["kzg.commit_ms"] = median(commit)
	m["kzg.prove_ms"] = median(prove)

	// Reconstruct row 1 from a seeded random half of its cells.
	line := blob.Line{Kind: blob.Row, Index: 1}
	full := ext.Line(line)
	have := make(map[int][]byte, p.K)
	for _, pos := range rand.New(rand.NewSource(int64(n))).Perm(n)[:p.K] {
		have[pos] = full[pos]
	}
	var rebuild []float64
	for i := 0; i < 4*reps; i++ {
		t0 := time.Now()
		got, err := blob.ReconstructLine(p, have)
		rebuild = append(rebuild, float64(time.Since(t0))/1e3)
		if err != nil {
			return fmt.Errorf("replay reconstruct: %w", err)
		}
		for pos := range got {
			if !bytes.Equal(got[pos], full[pos]) {
				res.check(false, "reconstructed line %v differs at position %d", line, pos)
				break
			}
		}
	}
	m["rs.reconstruct_line_us"] = median(rebuild)

	for k := 0; k < numMsgKinds; k++ {
		enc, dec := replayWire(res, msgs[k], p.CellBytes)
		m["wire.encode_ns."+msgNames[k]] = enc
		m["wire.decode_ns."+msgNames[k]] = dec
	}
	return nil
}

// wireReplayMax caps how many captured messages of one kind are replayed.
const wireReplayMax = 256

// replayWire encodes and decodes each captured message repeatedly and
// returns the mean nanoseconds per encode and per decode over the sample
// (0, 0 without messages). A decode that does not re-encode to the same
// bytes fails the run's output check.
func replayWire(res *runResult, msgs []wire.Message, cellBytes int) (encNs, decNs float64) {
	if len(msgs) > wireReplayMax {
		msgs = msgs[:wireReplayMax]
	}
	if len(msgs) == 0 {
		return 0, 0
	}
	const reps = 50
	var enc, dec time.Duration
	for _, msg := range msgs {
		buf, err := wire.Encode(msg, cellBytes)
		if err != nil {
			res.check(false, "wire encode %T: %v", msg, err)
			continue
		}
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			buf, _ = wire.Encode(msg, cellBytes)
		}
		t1 := time.Now()
		var back wire.Message
		for i := 0; i < reps; i++ {
			back, err = wire.Decode(buf, cellBytes)
		}
		enc += t1.Sub(t0)
		dec += time.Since(t1)
		if err != nil {
			res.check(false, "wire decode %T: %v", msg, err)
			continue
		}
		again, err := wire.Encode(back, cellBytes)
		res.check(err == nil && bytes.Equal(again, buf), "wire round trip of %T changed its bytes", msg)
	}
	calls := float64(len(msgs) * reps)
	return float64(enc) / calls, float64(dec) / calls
}
