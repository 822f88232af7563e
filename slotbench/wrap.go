package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"pandas/internal/core"
	"pandas/internal/transport"
	"pandas/internal/wire"
)

// Message kinds the wire replay distinguishes.
const (
	msgSeed = iota
	msgQuery
	msgResponse
	numMsgKinds
)

var msgNames = [numMsgKinds]string{"seed", "query", "response"}

// captureCap bounds how many messages of each kind one sender keeps for
// the wire replay.
const captureCap = 16

// captured is a sender's uniform sample (reservoir) of the messages it
// sent while tracing, one reservoir per kind.
type captured struct {
	msgs [numMsgKinds][]wire.Message
	seen [numMsgKinds]uint64
}

// slotState is shared by the endpoints of one slot: each node reports
// once (sampled, or crashed) and the last report closes done.
type slotState struct {
	slot      uint64
	remaining atomic.Int32
	done      chan struct{}
}

func newSlotState(slot uint64, nodes int) *slotState {
	st := &slotState{slot: slot, done: make(chan struct{})}
	st.remaining.Store(int32(nodes))
	if nodes == 0 {
		close(st.done)
	}
	return st
}

func (s *slotState) finish() {
	if s.remaining.Add(-1) == 0 {
		close(s.done)
	}
}

// endpoint is one real-UDP participant: its socket, the benchmark's
// core.Transport wrapper around it (the endpoint itself), and the
// wrapper around the handler passed to UDP.Start. Fields below udp are
// owned by the endpoint's event loop; the owner reads them through
// UDP.Run or after Close.
type endpoint struct {
	index  int
	udp    *transport.UDP
	rec    *recorder
	clock0 time.Time // wall time at which udp.Now() read zero

	node *core.Node // nil on seed-paper receivers

	cur      *slotState
	finished bool      // cur already told this node is done
	doneAt   time.Time // wall time the node finished sampling
	crashed  bool
	panics   int
	panicMsg string
	sends    int // node-side sends while tracing
	captured captured
	lags     []time.Duration

	rx      rxCounters   // seed-paper receiver counters for the current slot
	handled atomic.Int64 // seed datagrams handled, all slots (seed-paper)
	notify  chan struct{}
}

func newEndpoint(index int, udp *transport.UDP, epoch time.Time) *endpoint {
	return &endpoint{
		index:  index,
		udp:    udp,
		rec:    newRecorder(epoch),
		clock0: time.Now().Add(-udp.Now()),
		notify: make(chan struct{}, 1),
	}
}

// Send implements core.Transport around the node's UDP endpoint.
func (e *endpoint) Send(to, size int, payload any) {
	i := e.rec.begin(spanSend)
	e.udp.Send(to, size, payload)
	e.rec.end(i)
	e.sent(payload)
}

// SendReliable implements core.Transport; UDP has no reliable path.
func (e *endpoint) SendReliable(to, size int, payload any) {
	i := e.rec.begin(spanSend)
	e.udp.SendReliable(to, size, payload)
	e.rec.end(i)
	e.sent(payload)
}

// After implements core.Transport: the callback runs under the same
// span and panic guard as a handler.
func (e *endpoint) After(d time.Duration, fn func()) {
	e.udp.After(d, func() { e.guard(spanTimer, fn) })
}

// Now implements core.Transport.
func (e *endpoint) Now() time.Duration { return e.udp.Now() }

func (e *endpoint) sent(payload any) {
	if !e.rec.on {
		return
	}
	e.sends++
	e.captured.add(payload)
}

// onMessage is the handler passed to UDP.Start on node endpoints.
func (e *endpoint) onMessage(from, size int, payload any) {
	k := spanSeedHandle
	switch payload.(type) {
	case *wire.Query:
		k = spanQueryHandle
	case *wire.Response:
		k = spanResponseHandle
	}
	e.guard(k, func() { e.node.HandleMessage(from, size, payload) })
}

// guard runs one node callback inside a span. A panic is recovered and
// the node is treated as crashed for the rest of the run, so a protocol
// defect shows as failed node-slots instead of aborting the benchmark.
func (e *endpoint) guard(k spanKind, fn func()) {
	if e.crashed {
		return
	}
	i := e.rec.begin(k)
	defer e.settle(i)
	fn()
}

func (e *endpoint) settle(i int32) {
	if p := recover(); p != nil {
		e.crashed = true
		e.panics++
		e.panicMsg = fmt.Sprint(p)
		if !e.finished && e.cur != nil {
			e.finished = true
			e.cur.finish()
		}
	}
	e.rec.end(i)
	if e.finished || e.crashed || e.cur == nil {
		return
	}
	if m := e.node.Metrics(); m.Sampled {
		e.finished = true
		e.doneAt = e.clock0.Add(m.SampledAt)
		e.cur.finish()
	}
}

// beginSlot runs on the event loop before the node's StartSlot.
func (e *endpoint) beginSlot(st *slotState, traced bool) {
	e.cur = st
	e.finished = false
	e.doneAt = time.Time{}
	e.rec.on = traced
	e.rec.slot = uint32(st.slot)
	e.rx = rxCounters{slot: st.slot}
	if e.node == nil {
		return
	}
	if e.crashed {
		e.finished = true
		st.finish()
		return
	}
	e.rec.on = false // StartSlot is slot bookkeeping, not a timer
	e.guard(spanTimer, func() { e.node.StartSlot(st.slot) })
	e.rec.on = traced
}

// add offers one sent message to the reservoir of its kind and keeps a
// private copy when it is chosen.
func (c *captured) add(payload any) {
	k := msgSeed
	switch payload.(type) {
	case *wire.Seed:
	case *wire.Query:
		k = msgQuery
	case *wire.Response:
		k = msgResponse
	default:
		return
	}
	i := c.seen[k]
	c.seen[k]++
	slot := len(c.msgs[k])
	if slot >= captureCap {
		j := splitmix(i) % (i + 1)
		if j >= captureCap {
			return
		}
		slot = int(j)
	}
	var m wire.Message
	switch v := payload.(type) {
	case *wire.Seed:
		cp := *v
		cp.Cells = copyCells(v.Cells)
		cp.Boost = append([]wire.BoostEntry(nil), v.Boost...)
		m = &cp
	case *wire.Query:
		m = &wire.Query{Slot: v.Slot, Cells: append(v.Cells[:0:0], v.Cells...)}
	case *wire.Response:
		m = &wire.Response{Slot: v.Slot, Cells: copyCells(v.Cells)}
	}
	if slot == len(c.msgs[k]) {
		c.msgs[k] = append(c.msgs[k], m)
	} else {
		c.msgs[k][slot] = m
	}
}

func addCaptured(dst *[numMsgKinds][]wire.Message, src *captured) {
	for k := range src.msgs {
		dst[k] = append(dst[k], src.msgs[k]...)
	}
}

func copyCells(cs []wire.Cell) []wire.Cell {
	out := make([]wire.Cell, len(cs))
	for i, c := range cs {
		out[i] = c
		out[i].Data = append([]byte(nil), c.Data...)
	}
	return out
}

// builderTransport is the benchmark's core.Transport around the
// builder's UDP endpoint. On seed-paper it also applies receiver
// back-pressure: a seed datagram waits while its receiver has window
// datagrams not yet handled, so kernel receive buffers do not overflow;
// a receiver silent for waitLimit has its outstanding datagrams written
// off as lost.
type builderTransport struct {
	udp *transport.UDP
	rec *recorder // used from the goroutine calling PrepareAndSeed

	firstSend time.Time
	sentTo    []int64 // seed datagrams per receiver, all slots
	slotSent  []int64 // seed datagrams per receiver, current slot
	datagrams int     // current slot
	bytes     int64   // current slot
	captured  captured

	window     int64 // 0 disables back-pressure
	receivers  []*endpoint
	writtenOff []int64
	timer      *time.Timer
}

const waitLimit = 200 * time.Millisecond

func newBuilderTransport(udp *transport.UDP, nodes int, epoch time.Time) *builderTransport {
	return &builderTransport{
		udp:        udp,
		rec:        newRecorder(epoch),
		sentTo:     make([]int64, nodes),
		slotSent:   make([]int64, nodes),
		writtenOff: make([]int64, nodes),
	}
}

func (b *builderTransport) beginSlot(slot uint64, traced bool) {
	b.firstSend = time.Time{}
	clear(b.slotSent)
	b.datagrams, b.bytes = 0, 0
	b.rec.on = traced
	b.rec.slot = uint32(slot)
}

// Send implements core.Transport; the builder only seeds, so it is the
// same as SendReliable.
func (b *builderTransport) Send(to, size int, payload any) { b.SendReliable(to, size, payload) }

// SendReliable implements core.Transport.
func (b *builderTransport) SendReliable(to, size int, payload any) {
	if b.firstSend.IsZero() {
		b.firstSend = time.Now()
	}
	i := b.rec.begin(spanBuilderSend)
	if b.window > 0 {
		b.pace(to)
	}
	b.udp.SendReliable(to, size, payload)
	b.rec.end(i)
	b.sentTo[to]++
	b.slotSent[to]++
	b.datagrams++
	b.bytes += int64(size)
	if b.rec.on {
		b.captured.add(payload)
	}
}

func (b *builderTransport) outstanding(to int) int64 {
	return b.sentTo[to] - b.writtenOff[to] - b.receivers[to].handled.Load()
}

func (b *builderTransport) pace(to int) {
	if b.outstanding(to) < b.window {
		return
	}
	w := b.rec.begin(spanBuilderWait)
	if b.timer == nil {
		b.timer = time.NewTimer(waitLimit)
	} else {
		b.timer.Reset(waitLimit)
	}
	for b.outstanding(to) >= b.window {
		select {
		case <-b.receivers[to].notify:
		case <-b.timer.C:
			b.writtenOff[to] = b.sentTo[to] - b.receivers[to].handled.Load()
		}
	}
	if !b.timer.Stop() {
		select {
		case <-b.timer.C:
		default:
		}
	}
	b.rec.end(w)
}

// After implements core.Transport.
func (b *builderTransport) After(d time.Duration, fn func()) { b.udp.After(d, fn) }

// Now implements core.Transport.
func (b *builderTransport) Now() time.Duration { return b.udp.Now() }
