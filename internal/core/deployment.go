package core

import (
	"sync"

	"pandas/internal/assign"
	"pandas/internal/ids"
	"pandas/internal/wire"
)

// Deployment is the one recipe every real-UDP runtime (transport.Localnet,
// pandas-node's static-peers mode, swarm workers) wires a deployment from.
// Every process that knows (cfg, n, seed) derives the same node
// identities, assignment table, proposer key, builder identity, rng seeds
// and filler blob, so proposer-signed seeds and the custody assignment
// A(n, e) agree cluster-wide — the converged state of an ENR crawl.
//
// Nodes occupy indices 0..n-1; the builder is index n.
type Deployment struct {
	Table *Table

	cfg       Config
	seed      int64
	proposer  *ids.Identity
	builderID ids.NodeID

	fillerOnce sync.Once
	filler     []byte
}

// NewDeployment derives the shared deployment state for n nodes.
func NewDeployment(cfg Config, n int, seed int64) (*Deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodeIDs := make([]ids.NodeID, n)
	for i := range nodeIDs {
		nodeIDs[i] = ids.NewTestIdentity(seed<<16 + int64(i)).ID
	}
	epochSeed := assign.Seed{byte(seed), byte(seed >> 8)}
	table, err := NewTable(cfg.Assign, epochSeed, nodeIDs)
	if err != nil {
		return nil, err
	}
	return &Deployment{
		Table:     table,
		cfg:       cfg,
		seed:      seed,
		proposer:  ids.NewTestIdentity(seed<<16 + 999),
		builderID: ids.NewTestIdentity(seed<<16 + int64(n) + 3).ID,
	}, nil
}

// Node builds participant i on tr, verifying seeds against the
// deployment's proposer.
func (d *Deployment) Node(i int, tr Transport) *Node {
	n := NewNode(d.cfg, i, d.Table, tr, d.seed^int64(i*7919))
	n.SetSeedVerification(d.proposer.Public)
	return n
}

// Builder builds the deployment's builder (index n) on tr with the
// proposer's seed signer installed and the deterministic filler blob
// prepared.
func (d *Deployment) Builder(tr Transport) (*Builder, error) {
	b := NewBuilder(d.cfg, d.Table.NumNodes(), d.builderID, d.Table, tr, d.seed+5)
	b.SetProposerSigner(func(slot uint64) [wire.SigSize]byte {
		var sig [wire.SigSize]byte
		copy(sig[:], d.proposer.Sign(wire.SeedSigningBytes(slot, d.builderID)))
		return sig
	})
	if err := b.PrepareBlob(d.Filler()); err != nil {
		return nil, err
	}
	return b, nil
}

// Filler returns the deployment's deterministic blob, byte i = i*131+7.
// Builders prepare it per slot with PrepareAndSeed. It is computed once
// and shared: callers must not modify it.
func (d *Deployment) Filler() []byte {
	d.fillerOnce.Do(func() {
		d.filler = make([]byte, d.cfg.Blob.BlobBytes())
		for i := range d.filler {
			d.filler[i] = byte(i*131 + 7)
		}
	})
	return d.filler
}
