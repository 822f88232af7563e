package transport

import (
	"time"

	"pandas/internal/core"
)

// Localnet is a real-UDP PANDAS deployment on the loopback interface: N
// nodes plus one builder, each with its own socket and event loop. It is
// the repository's stand-in for the paper's 1,000-process cluster
// deployment and powers the localnet example and the cross-validation
// test.
type Localnet struct {
	Cfg     core.Config
	Table   *core.Table
	Nodes   []*core.Node
	Builder *core.Builder

	deployment *core.Deployment
	endpoints  []*UDP // nodes 0..N-1, builder at index N
}

// NewLocalnet binds N node endpoints and one builder endpoint on
// 127.0.0.1 and wires the protocol from core.NewDeployment. Real payloads
// are used: the builder prepares the deployment's deterministic filler
// blob afresh every slot.
func NewLocalnet(cfg core.Config, n int, seed int64) (*Localnet, error) {
	cfg.RealPayloads = true
	d, err := core.NewDeployment(cfg, n, seed)
	if err != nil {
		return nil, err
	}
	ln := &Localnet{Cfg: cfg, Table: d.Table, deployment: d}

	// Bind all endpoints first so every peer table is complete.
	addrs := make([]string, n+1)
	for i := 0; i <= n; i++ {
		ep, err := NewUDP(i, "127.0.0.1:0", cfg.Blob.CellBytes)
		if err != nil {
			ln.Close()
			return nil, err
		}
		ln.endpoints = append(ln.endpoints, ep)
		addrs[i] = ep.Addr()
	}
	for _, ep := range ln.endpoints {
		if err := ep.SetPeers(addrs); err != nil {
			ln.Close()
			return nil, err
		}
	}

	for i := 0; i < n; i++ {
		node := d.Node(i, ln.endpoints[i])
		ln.Nodes = append(ln.Nodes, node)
		ln.endpoints[i].Start(func(from, size int, payload any) {
			node.HandleMessage(from, size, payload)
		})
	}
	ln.Builder, err = d.Builder(ln.endpoints[n])
	if err != nil {
		ln.Close()
		return nil, err
	}
	ln.endpoints[n].Start(func(from, size int, payload any) {})
	return ln, nil
}

// RunSlot starts a slot on every node, has the builder prepare and seed
// the slot's blob, and waits (real time) until all nodes finish sampling
// or the timeout expires. It returns per-node sampling durations
// measured from the seeding trigger (negative = did not finish).
func (ln *Localnet) RunSlot(slot uint64, timeout time.Duration) ([]time.Duration, error) {
	type ack struct{}
	started := make(chan ack, len(ln.Nodes))
	for i, node := range ln.Nodes {
		node := node
		ln.endpoints[i].Run(func() {
			node.StartSlot(slot)
			started <- ack{}
		})
	}
	for range ln.Nodes {
		<-started
	}

	begin := time.Now()
	seeded := make(chan error, 1)
	bIdx := len(ln.Nodes)
	ln.endpoints[bIdx].Run(func() {
		_, err := ln.Builder.PrepareAndSeed(slot, ln.deployment.Filler())
		seeded <- err
	})
	if err := <-seeded; err != nil {
		return nil, err
	}

	deadline := time.After(timeout)
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-deadline:
			return ln.collect(begin), nil
		case <-ticker.C:
			if ln.allSampled() {
				return ln.collect(begin), nil
			}
		}
	}
}

// allSampled polls node completion on each node's own event loop.
func (ln *Localnet) allSampled() bool {
	done := make(chan bool, len(ln.Nodes))
	for i, node := range ln.Nodes {
		node := node
		ln.endpoints[i].Run(func() { done <- node.Metrics().Sampled })
	}
	for range ln.Nodes {
		if !<-done {
			return false
		}
	}
	return true
}

func (ln *Localnet) collect(begin time.Time) []time.Duration {
	type sample struct {
		i int
		d time.Duration
	}
	ch := make(chan sample, len(ln.Nodes))
	for i, node := range ln.Nodes {
		i, node := i, node
		ln.endpoints[i].Run(func() {
			d := time.Duration(-1)
			if node.Metrics().Sampled {
				// Node clocks are per-endpoint; convert via wall time.
				d = time.Since(begin) - (node.Transport().Now() - node.Metrics().SampledAt)
			}
			ch <- sample{i: i, d: d}
		})
	}
	out := make([]time.Duration, len(ln.Nodes))
	for range ln.Nodes {
		s := <-ch
		out[s.i] = s.d
	}
	return out
}

// Close shuts down every endpoint.
func (ln *Localnet) Close() {
	for _, ep := range ln.endpoints {
		if ep != nil {
			_ = ep.Close()
		}
	}
}
