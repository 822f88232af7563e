package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/core"
	"pandas/internal/ids"
	"pandas/internal/kzg"
	"pandas/internal/transport"
	"pandas/internal/wire"
)

// deployment is one real-UDP PANDAS deployment on loopback, wired the
// way transport.NewLocalnet wires it but through the benchmark's own
// transport and handler wrappers: N endpoints (core.Node instances, or
// bare seed receivers) plus one builder.
type deployment struct {
	table    *core.Table
	eps      []*endpoint
	builder  *core.Builder
	bt       *builderTransport
	builderE *transport.UDP
}

// derive mixes the workload seed with a label into an independent
// 64-bit stream seed.
func derive(seed int64, label string, i int64) int64 {
	h := sha256.New()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, i)
	return int64(binary.LittleEndian.Uint64(h.Sum(nil)))
}

// newDeployment builds the deployment. With nodes false the endpoints
// only count and spot-verify the seed cells they receive; lossRate drops
// that share of node-to-node datagrams (seeds are exempt).
func newDeployment(cfg core.Config, n int, seed int64, epoch time.Time, nodes bool, lossRate float64) (*deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodeIDs := make([]ids.NodeID, n)
	for i := range nodeIDs {
		nodeIDs[i] = ids.NewTestIdentity(derive(seed, "node-id", int64(i))).ID
	}
	var epochSeed assign.Seed
	binary.LittleEndian.PutUint64(epochSeed[:], uint64(derive(seed, "epoch", 0)))
	table, err := core.NewTable(cfg.Assign, epochSeed, nodeIDs)
	if err != nil {
		return nil, err
	}
	d := &deployment{table: table}

	addrs := make([]string, n+1)
	udps := make([]*transport.UDP, 0, n+1)
	for i := 0; i <= n; i++ {
		u, err := transport.NewUDP(i, "127.0.0.1:0", cfg.Blob.CellBytes)
		if err != nil {
			for _, u := range udps {
				_ = u.Close()
			}
			return nil, err
		}
		udps = append(udps, u)
		addrs[i] = u.Addr()
	}
	for _, u := range udps {
		if err := u.SetPeers(addrs); err != nil {
			for _, u := range udps {
				_ = u.Close()
			}
			return nil, err
		}
	}
	proposer := ids.NewTestIdentity(derive(seed, "proposer", 0))
	for i := 0; i < n; i++ {
		e := newEndpoint(i, udps[i], epoch)
		d.eps = append(d.eps, e)
		if !nodes {
			udps[i].Start(e.onSeed)
			continue
		}
		e.node = core.NewNode(cfg, i, table, e, derive(seed, "node-rng", int64(i)))
		e.node.SetSeedVerification(proposer.Public)
		if lossRate > 0 {
			udps[i].SetLinkPolicy(lossPolicy(derive(seed, "loss", int64(i)), lossRate))
		}
		udps[i].Start(e.onMessage)
	}
	d.builderE = udps[n]
	d.bt = newBuilderTransport(udps[n], n, epoch)
	if !nodes {
		d.bt.window = seedWindow
		d.bt.receivers = d.eps
	}
	builderID := ids.NewTestIdentity(derive(seed, "builder", 0)).ID
	d.builder = core.NewBuilder(cfg, n, builderID, table, d.bt, derive(seed, "builder-rng", 0))
	d.builder.SetProposerSigner(func(slot uint64) [wire.SigSize]byte {
		var sig [wire.SigSize]byte
		copy(sig[:], proposer.Sign(wire.SeedSigningBytes(slot, builderID)))
		return sig
	})
	udps[n].Start(func(from, size int, payload any) {})
	return d, nil
}

// seedWindow is how many seed datagrams a receiver may have outstanding
// on seed-paper: two ~54 KB datagrams stay inside the kernel's default
// 208 KiB socket receive buffer.
const seedWindow = 2

// lossPolicy drops a deterministic pseudo-random share of datagrams: the
// k-th datagram an endpoint sends is dropped when splitmix64(seed+k)
// falls below rate.
func lossPolicy(seed int64, rate float64) func(int, []byte) (bool, time.Duration) {
	var k atomic.Uint64
	limit := uint64(rate * (1 << 63) * 2)
	return func(int, []byte) (bool, time.Duration) {
		return splitmix(uint64(seed)+k.Add(1)) < limit, 0
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fillBlob writes the slot's fresh blob bytes.
func fillBlob(dst []byte, seed int64, slot uint64) {
	s := uint64(derive(seed, "blob", int64(slot)))
	for i := 0; i+8 <= len(dst); i += 8 {
		s += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(dst[i:], splitmix(s))
	}
}

// run posts fn to every endpoint's event loop and waits for all of them.
func (d *deployment) run(fn func(e *endpoint)) {
	ack := make(chan struct{}, len(d.eps))
	for _, e := range d.eps {
		e := e
		e.udp.Run(func() {
			fn(e)
			ack <- struct{}{}
		})
	}
	for range d.eps {
		<-ack
	}
}

func (d *deployment) close() {
	for _, e := range d.eps {
		_ = e.udp.Close()
	}
	_ = d.builderE.Close()
}

// rxCounters are a seed-paper receiver's per-slot counts.
type rxCounters struct {
	slot      uint64
	datagrams int64
	cells     int64
	stray     int64 // datagrams of another slot
	verified  int64
	badProofs int64
	commit    kzg.Commitment
	commits   int // distinct commitments seen this slot
	lastAt    time.Time
}

// spotCheck selects the deterministic sample of seed cells a receiver
// verifies: one cell in spotRate, chosen by hashing slot and position.
const spotRate = 256

func spotCheck(slot uint64, id blob.CellID) bool {
	return splitmix(slot<<32|uint64(id.Row)<<16|uint64(id.Col))%spotRate == 0
}

// onSeed is the handler passed to UDP.Start on seed-paper receivers.
func (e *endpoint) onSeed(from, size int, payload any) {
	m, ok := payload.(*wire.Seed)
	if !ok {
		return
	}
	i := e.rec.begin(spanSeedHandle)
	if m.Slot != e.rx.slot {
		e.rx.stray++
	} else {
		e.rx.datagrams++
		e.rx.cells += int64(len(m.Cells))
		e.rx.lastAt = time.Now()
		if e.rx.commits == 0 || m.Commitment != e.rx.commit {
			e.rx.commit = m.Commitment
			e.rx.commits++
		}
		for _, c := range m.Cells {
			if spotCheck(m.Slot, c.ID) {
				e.rx.verified++
				if !kzg.Verify(m.Commitment, c.ID, c.Data, c.Proof) {
					e.rx.badProofs++
				}
			}
		}
	}
	e.rec.end(i)
	e.handled.Add(1)
	select {
	case e.notify <- struct{}{}:
	default:
	}
}

// checkStore compares every custody and sample cell a node holds with
// the builder's prepared payload, byte for byte. It returns the number of
// cells compared and a description of the first mismatch.
func checkStore(n *core.Node, b *core.Builder, table *core.Table, width int) (int, string) {
	st := n.Store()
	if st == nil {
		return 0, ""
	}
	compare := func(id blob.CellID) (bool, string) {
		got, ok := st.Peek(id)
		if !ok {
			return false, ""
		}
		want, ok := b.CellPayload(id)
		if !ok {
			return true, fmt.Sprintf("node %d: builder has no payload for %v", n.Index(), id)
		}
		if !bytes.Equal(got.Data, want.Data) || got.Proof != want.Proof {
			return true, fmt.Sprintf("node %d: cell %v differs from the builder's", n.Index(), id)
		}
		return true, ""
	}
	checked := 0
	for _, l := range table.Assignment(n.Index()).Lines() {
		for _, id := range l.Cells(width) {
			ok, bad := compare(id)
			if bad != "" {
				return checked, bad
			}
			if ok {
				checked++
			}
		}
	}
	for _, id := range n.Samples() {
		ok, bad := compare(id)
		if bad != "" {
			return checked, bad
		}
		if ok {
			checked++
		}
	}
	return checked, ""
}
