package core

import (
	"encoding/hex"
	"fmt"
	"testing"

	"pandas/internal/assign"
	"pandas/internal/blob"
	"pandas/internal/wire"
)

// deploymentTestConfig is the swarm's default geometry (16x16 extended
// matrix, 4+4 custody lines) with real payloads.
func deploymentTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Blob = blob.Params{K: 8, CellBytes: 64, ProofBytes: 48}
	cfg.Assign = assign.Params{Rows: 4, Cols: 4, N: cfg.Blob.N()}
	cfg.Samples = 6
	cfg.Redundancy = 4
	cfg.RealPayloads = true
	return cfg
}

// TestDeploymentGolden pins the seed-42, 8-node deployment to the values
// swarm workers and pandas-node processes derived before they shared one
// recipe, so every real-UDP runtime keeps agreeing on identities, custody,
// the proposer key and the seeded filler blob. It also checks the
// proposer-signed seeding round trip between a deployment's builder and
// its nodes.
func TestDeploymentGolden(t *testing.T) {
	cfg := deploymentTestConfig()
	d, err := NewDeployment(cfg, 8, 42)
	if err != nil {
		t.Fatal(err)
	}

	// seedsFor builds d's builder and returns it with the slot-1 seeds it
	// sends to node.
	seedsFor := func(d *Deployment, node int) (*Builder, []*wire.Seed) {
		tr := &captureTransport{}
		b, err := d.Builder(tr)
		if err != nil {
			t.Fatal(err)
		}
		b.SeedSlot(1)
		var out []*wire.Seed
		for _, s := range tr.sends {
			if s.to == node {
				out = append(out, s.payload.(*wire.Seed))
			}
		}
		if len(out) == 0 {
			t.Fatalf("builder sent nothing to node %d", node)
		}
		return b, out
	}
	b, ownSeeds := seedsFor(d, 0)
	commitment := b.Commitment()
	for _, g := range []struct{ name, got, want string }{
		{"node 0 id", d.Table.ID(0).Hex(), "f1a33d0cf781b4ba2febb7b3c9a7ab40aed204f0c799f994f2bcdf6e7c94883b"},
		{"node 0 lines", fmt.Sprint(d.Table.Assignment(0).Lines()), "[row9 row10 row11 row14 col1 col7 col8 col14]"},
		{"builder id", d.builderID.Hex(), "275b3401b98911e1850b6b1b62f081d341265984cf4b3e673b13e20cb91fe2a6"},
		{"proposer key", hex.EncodeToString(d.proposer.Public), "cc17c13a78f11f6a97e06c60ce7bcccfcc98e112a96a67a9b3cf878c01929e3d"},
		{"filler commitment", hex.EncodeToString(commitment[:]), "3555edff64a959762c987949213e92837e00527cd3d2d8901809241d23ab9419"},
	} {
		if g.got != g.want {
			t.Errorf("%s = %s, want %s", g.name, g.got, g.want)
		}
	}

	// Every process derives the same deployment.
	again, err := NewDeployment(cfg, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if again.Table.NumNodes() != 8 {
		t.Fatalf("table size %d", again.Table.NumNodes())
	}
	for i := 0; i < 8; i++ {
		if again.Table.ID(i) != d.Table.ID(i) {
			t.Fatalf("node %d identity unstable", i)
		}
		if d.Table.ID(i) == d.builderID {
			t.Fatalf("builder identity collides with node %d", i)
		}
	}

	// A node accepts seeds from its own deployment's builder and rejects
	// seeds signed under another deployment seed.
	other, err := NewDeployment(cfg, 8, 43)
	if err != nil {
		t.Fatal(err)
	}
	_, foreignSeeds := seedsFor(other, 0)
	for _, tc := range []struct {
		name   string
		seeds  []*wire.Seed
		accept bool
	}{
		{"own builder", ownSeeds, true},
		{"foreign builder", foreignSeeds, false},
	} {
		node := d.Node(0, &captureTransport{})
		node.StartSlot(1)
		for _, m := range tc.seeds {
			node.HandleMessage(8, 100, m)
		}
		if got := node.Metrics().HasSeed; got != tc.accept {
			t.Errorf("%s: HasSeed = %v, want %v", tc.name, got, tc.accept)
		}
	}
}
