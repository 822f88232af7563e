package rs

import (
	"math/rand"
	"testing"
)

// Paper geometry for the GF(2^16) codec: each row/column codeword of the
// extended matrix has K=256 data shards extended to 512, with 512 B
// cells.
const (
	benchK16   = 256
	benchN16   = 512
	benchShard = 512
)

func benchShards16(b *testing.B, c *Codec16, size int) [][]byte {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	shards := make([][]byte, c.TotalShards())
	for i := 0; i < c.DataShards(); i++ {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	return shards
}

// BenchmarkEncode16 measures Codec16.Encode at paper geometry
// (K=256 -> 512, 512 B shards): the additive-FFT path. Throughput is
// relative to the data bytes encoded.
func BenchmarkEncode16(b *testing.B) {
	c, err := New16(benchK16, benchN16)
	if err != nil {
		b.Fatal(err)
	}
	shards := benchShards16(b, c, benchShard)
	b.SetBytes(int64(benchK16 * benchShard))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode16Matrix measures the dense matrix fallback at a
// non-power-of-two k close to paper scale, the path Reconstruct shares.
func BenchmarkEncode16Matrix(b *testing.B) {
	c, err := New16(benchK16-6, benchN16-12)
	if err != nil {
		b.Fatal(err)
	}
	shards := benchShards16(b, c, benchShard)
	b.SetBytes(int64((benchK16 - 6) * benchShard))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify16 measures parity verification at paper geometry.
func BenchmarkVerify16(b *testing.B) {
	c, err := New16(benchK16, benchN16)
	if err != nil {
		b.Fatal(err)
	}
	shards := benchShards16(b, c, benchShard)
	if err := c.Encode(shards); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(benchK16 * benchShard))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := c.Verify(shards)
		if err != nil || !ok {
			b.Fatalf("Verify = %v %v", ok, err)
		}
	}
}

// BenchmarkReconstruct16Warm measures reconstruction of half the shards
// with a RECURRING loss pattern, the common case under churn: the decode
// matrix comes from the LRU after the first iteration.
func BenchmarkReconstruct16Warm(b *testing.B) {
	benchReconstruct16(b, false)
}

// BenchmarkReconstruct16Cold shifts the loss pattern every iteration so
// every decode matrix is a cache miss (full Gauss-Jordan inversion).
func BenchmarkReconstruct16Cold(b *testing.B) {
	benchReconstruct16(b, true)
}

func benchReconstruct16(b *testing.B, shift bool) {
	c, err := New16(benchK16, benchN16)
	if err != nil {
		b.Fatal(err)
	}
	master := benchShards16(b, c, benchShard)
	if err := c.Encode(master); err != nil {
		b.Fatal(err)
	}
	shards := make([][]byte, benchN16)
	b.SetBytes(int64(benchK16 * benchShard))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := 0
		if shift {
			off = i % benchK16
		}
		for j := range shards {
			shards[j] = nil
		}
		// Keep every other shard, rotated by off: half data and half
		// parity missing.
		for j := 0; j < benchK16; j++ {
			pos := (2*j + off) % benchN16
			shards[pos] = master[pos]
		}
		if err := c.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}
