// Package rs implements a systematic Reed-Solomon erasure code over
// GF(2^16).
//
// A Codec16 splits data into k shards and produces n-k parity shards such
// that the original data can be reconstructed from ANY k of the n shards.
// PANDAS uses rate-1/2 codes (n = 2k) per row and per column of the blob
// matrix: each 256-cell row extends to 512 cells and survives the loss of
// any half of them, which is past the 256-shard cap of GF(2^8).
//
// The construction is the classic systematic Vandermonde code: an n-by-k
// Vandermonde matrix is normalized (multiplied by the inverse of its top
// k-by-k block) so the first k rows form the identity. Encoding is then a
// matrix-vector product per 16-bit word; decoding gathers any k surviving
// rows of the encode matrix, inverts, and re-multiplies.
package rs

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"pandas/internal/gf65536"
)

// Errors returned by the codec.
var (
	ErrInvalidParams = errors.New("rs: invalid codec parameters")
	ErrTooFewShards  = errors.New("rs: not enough shards to reconstruct")
	ErrShardSize     = errors.New("rs: shards have inconsistent sizes")
	ErrShardCount    = errors.New("rs: wrong number of shards")
	ErrSingular      = errors.New("rs: matrix is singular")
)

// MaxShards16 caps the total shard count of a Codec16 (distinct GF(2^16)
// evaluation points).
const MaxShards16 = 65536

// Codec16 is a systematic Reed-Solomon codec over GF(2^16), supporting up
// to 65536 total shards. Shard contents are interpreted as big-endian
// 16-bit words, so shard sizes must be even. This is the codec used for
// the 256->512 row/column extension of the PANDAS blob matrix.
//
// The public API is unchanged from the naive implementation, but the hot
// paths are not: when k is a power of two, Encode and Verify run the
// additive-FFT evaluation of rs16_fft.go (O(k log k) shard operations,
// bit-identical output); all remaining matrix products run on cached
// split-multiplication tables with four-source fused accumulation; and
// Reconstruct keeps an LRU of inverted decode matrices keyed by the
// chosen-shard bitmask so recurring loss patterns skip Gauss-Jordan.
//
// A Codec16 is logically immutable and safe for concurrent use; the
// internal caches are synchronized.
type Codec16 struct {
	k, n   int
	encode matrix16 // n x k, top k rows identity

	fft *fftPlan // non-nil when k is a power of two >= 2

	// rowTab lazily caches the split-multiplication tables of each
	// encode-matrix row, so Encode/Reconstruct/Verify on the matrix path
	// never rebuild per-coefficient tables.
	rowTab []atomic.Pointer[[]*gf65536.MulTable16]

	dec     *decodeCache // inverted decode matrices by loss pattern
	scratch scratchPool  // shard workspaces for Verify and encodeFFT
	hdrs    scratchPool  // shard-header ([][]byte) workspaces, size 0
}

// scratchPool hands out slices of reusable shard-sized buffers.
type scratchPool struct{ p sync.Pool }

func (sp *scratchPool) get(count, size int) [][]byte {
	bufs, _ := sp.p.Get().([][]byte)
	if cap(bufs) < count {
		bufs = make([][]byte, count)
	}
	bufs = bufs[:count]
	for i := range bufs {
		if cap(bufs[i]) < size {
			bufs[i] = make([]byte, size)
		} else {
			bufs[i] = bufs[i][:size]
		}
	}
	return bufs
}

func (sp *scratchPool) put(bufs [][]byte) { sp.p.Put(bufs) } //nolint:staticcheck // slice header boxing is fine here

// matrix16 is a dense row-major matrix over GF(2^16).
type matrix16 struct {
	rows, cols int
	data       []uint16
}

func newMatrix16(rows, cols int) matrix16 {
	return matrix16{rows: rows, cols: cols, data: make([]uint16, rows*cols)}
}

func (m matrix16) at(r, c int) uint16     { return m.data[r*m.cols+c] }
func (m matrix16) set(r, c int, v uint16) { m.data[r*m.cols+c] = v }
func (m matrix16) row(r int) []uint16     { return m.data[r*m.cols : (r+1)*m.cols] }

func (m matrix16) mul(other matrix16) matrix16 {
	if m.cols != other.rows {
		panic("rs: matrix16 dimension mismatch")
	}
	out := newMatrix16(m.rows, other.cols)
	for r := 0; r < m.rows; r++ {
		for k := 0; k < m.cols; k++ {
			a := m.at(r, k)
			if a == 0 {
				continue
			}
			gf65536.MulAddSlice(a, other.row(k), out.row(r))
		}
	}
	return out
}

func (m matrix16) subMatrix(rmin, rmax, cmin, cmax int) matrix16 {
	out := newMatrix16(rmax-rmin, cmax-cmin)
	for r := rmin; r < rmax; r++ {
		for c := cmin; c < cmax; c++ {
			out.set(r-rmin, c-cmin, m.at(r, c))
		}
	}
	return out
}

func (m matrix16) invert() (matrix16, error) {
	if m.rows != m.cols {
		panic("rs: cannot invert non-square matrix16")
	}
	n := m.rows
	work := newMatrix16(n, 2*n)
	for r := 0; r < n; r++ {
		copy(work.row(r)[:n], m.row(r))
		work.set(r, n+r, 1)
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if work.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return matrix16{}, ErrSingular
		}
		if pivot != col {
			pr, cr := work.row(pivot), work.row(col)
			for i := range pr {
				pr[i], cr[i] = cr[i], pr[i]
			}
		}
		if pv := work.at(col, col); pv != 1 {
			inv := gf65536.Inv(pv)
			gf65536.MulSlice(inv, work.row(col), work.row(col))
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := work.at(r, col); f != 0 {
				gf65536.MulAddSlice(f, work.row(col), work.row(r))
			}
		}
	}
	out := newMatrix16(n, n)
	for r := 0; r < n; r++ {
		copy(out.row(r), work.row(r)[n:])
	}
	return out, nil
}

func vandermonde16(rows, cols int) matrix16 {
	m := newMatrix16(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.set(r, c, gf65536.Pow(uint16(r), c))
		}
	}
	return m
}

// New16 creates a GF(2^16) codec with k data shards and n total shards.
// Requires 1 <= k < n <= MaxShards16.
func New16(k, n int) (*Codec16, error) {
	if k < 1 || n <= k || n > MaxShards16 {
		return nil, fmt.Errorf("%w: k=%d n=%d", ErrInvalidParams, k, n)
	}
	v := vandermonde16(n, k)
	top := v.subMatrix(0, k, 0, k)
	topInv, err := top.invert()
	if err != nil {
		return nil, fmt.Errorf("rs: vandermonde16 top block: %w", err)
	}
	c := &Codec16{
		k:      k,
		n:      n,
		encode: v.mul(topInv),
		rowTab: make([]atomic.Pointer[[]*gf65536.MulTable16], n),
		dec:    newDecodeCache(decodeCacheSize),
	}
	if k >= 2 && bits.OnesCount(uint(k)) == 1 {
		c.fft = newFFTPlan(k, n)
	}
	return c, nil
}

// rowTables returns the cached split-multiplication tables of
// encode-matrix row i, building them on first use.
func (c *Codec16) rowTables(i int) []*gf65536.MulTable16 {
	if t := c.rowTab[i].Load(); t != nil {
		return *t
	}
	row := c.encode.row(i)
	tabs := make([]*gf65536.MulTable16, len(row))
	for j, v := range row {
		tabs[j] = gf65536.TableFor(v)
	}
	c.rowTab[i].CompareAndSwap(nil, &tabs)
	return *c.rowTab[i].Load()
}

// mulRowInto sets dst = sum_j tabs[j]*srcs[j], overwriting dst. The first
// source is an overwriting multiply (no clearing pass) and the remainder
// accumulate eight (then four, two) sources per dst pass, dividing the
// dst read-modify-write traffic of the naive loop by the fan-in.
func mulRowInto(tabs []*gf65536.MulTable16, srcs [][]byte, dst []byte) {
	tabs[0].Mul(srcs[0], dst)
	j := 1
	for ; j+8 <= len(srcs); j += 8 {
		gf65536.MulAdd8(tabs[j], tabs[j+1], tabs[j+2], tabs[j+3],
			tabs[j+4], tabs[j+5], tabs[j+6], tabs[j+7],
			srcs[j], srcs[j+1], srcs[j+2], srcs[j+3],
			srcs[j+4], srcs[j+5], srcs[j+6], srcs[j+7], dst)
	}
	for ; j+4 <= len(srcs); j += 4 {
		gf65536.MulAdd4(tabs[j], tabs[j+1], tabs[j+2], tabs[j+3],
			srcs[j], srcs[j+1], srcs[j+2], srcs[j+3], dst)
	}
	if j+2 <= len(srcs) {
		gf65536.MulAdd2(tabs[j], tabs[j+1], srcs[j], srcs[j+1], dst)
		j += 2
	}
	for ; j < len(srcs); j++ {
		tabs[j].MulAdd(srcs[j], dst)
	}
}

// DataShards returns k.
func (c *Codec16) DataShards() int { return c.k }

// TotalShards returns n.
func (c *Codec16) TotalShards() int { return c.n }

// ParityShards returns n - k.
func (c *Codec16) ParityShards() int { return c.n - c.k }

// Encode computes parity shards n-k..n-1 from data shards 0..k-1.
// All data shards must be non-nil, equally sized, and of even length.
// Existing parity slices are reused when their capacity suffices.
func (c *Codec16) Encode(shards [][]byte) error {
	if len(shards) != c.n {
		return fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), c.n)
	}
	size, err := checkEvenShards(shards[:c.k])
	if err != nil {
		return err
	}
	for i := c.k; i < c.n; i++ {
		if cap(shards[i]) >= size {
			shards[i] = shards[i][:size]
		} else {
			shards[i] = make([]byte, size)
		}
	}
	if c.fft != nil {
		c.encodeFFT(shards, size)
		return nil
	}
	for i := c.k; i < c.n; i++ {
		mulRowInto(c.rowTables(i), shards[:c.k], shards[i])
	}
	return nil
}

// encodeFFT fills the parity shards by interpolating the data on W_h
// (inverse FFT) and evaluating on each parity coset (forward FFT). Every
// write fully overwrites its destination, so reused parity buffers need
// no clearing.
func (c *Codec16) encodeFFT(shards [][]byte, size int) {
	k := c.k
	if c.n == 2*k {
		// The workspace is the parity half itself: the inverse transform
		// reads the data shards directly (copying each at its recursion
		// leaf), then the forward transform evaluates on the coset — the
		// values land exactly where they belong, with zero extra buffers
		// and no separate copy sweep.
		w := shards[k:]
		c.fft.ifftFrom(w, shards[:k])
		c.fft.fftShards(w, c.fft.fftTab[0])
		return
	}
	coeffs := c.scratch.get(k, size)
	defer c.scratch.put(coeffs)
	c.fft.ifftFrom(coeffs, shards[:k])
	vals := c.scratch.get(k, size)
	defer c.scratch.put(vals)
	for ci := range c.fft.fftTab {
		for j := range vals {
			copy(vals[j], coeffs[j])
		}
		c.fft.fftShards(vals, c.fft.fftTab[ci])
		lo := (ci + 1) * k
		for j := 0; j < k && lo+j < c.n; j++ {
			copy(shards[lo+j], vals[j])
		}
	}
}

// Reconstruct fills in nil shards in place given at least k present shards.
func (c *Codec16) Reconstruct(shards [][]byte) error {
	if len(shards) != c.n {
		return fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), c.n)
	}
	present := make([]int, 0, c.k)
	size := -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrShardSize, i, len(s), size)
		}
		present = append(present, i)
	}
	if size > 0 && size%2 != 0 {
		return fmt.Errorf("%w: odd shard size %d", ErrShardSize, size)
	}
	if len(present) < c.k {
		return fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, len(present), c.k)
	}
	if len(present) == c.n {
		return nil
	}
	chosen := present[:c.k]
	dec, err := c.decodeMatrixFor(chosen)
	if err != nil {
		return err
	}
	// Recover missing data shards from the chosen present shards. The
	// source-shard set is the same for every row, so gather it (and a
	// reusable table slice) once.
	srcs := make([][]byte, c.k)
	for r, idx := range chosen {
		srcs[r] = shards[idx]
	}
	tabs := make([]*gf65536.MulTable16, c.k)
	missingParity := 0
	for i := c.k; i < c.n; i++ {
		if shards[i] == nil {
			missingParity++
		}
	}
	for j := 0; j < c.k; j++ {
		if shards[j] != nil {
			continue
		}
		out := make([]byte, size)
		row := dec.row(j)
		for r, v := range row {
			tabs[r] = gf65536.TableFor(v)
		}
		mulRowInto(tabs, srcs, out)
		shards[j] = out
	}
	if missingParity == 0 {
		return nil
	}
	// Regenerate missing parity from the (now complete) data. When many
	// parity shards are gone and the FFT path exists, recomputing ALL
	// parity costs O(k log k) shard ops versus O(k) per matrix row, so
	// switch over past ~2 log2(k) missing shards.
	if c.fft != nil && missingParity > 2*c.fft.h {
		full := c.scratch.get(c.n-c.k, size)
		defer c.scratch.put(full)
		tmp := c.hdrs.get(c.n, 0)
		defer c.hdrs.put(tmp)
		copy(tmp, shards[:c.k])
		for i := c.k; i < c.n; i++ {
			tmp[i] = full[i-c.k]
		}
		c.encodeFFT(tmp, size)
		for i := c.k; i < c.n; i++ {
			if shards[i] == nil {
				shards[i] = append([]byte(nil), tmp[i]...)
			}
		}
		return nil
	}
	for i := c.k; i < c.n; i++ {
		if shards[i] != nil {
			continue
		}
		out := make([]byte, size)
		mulRowInto(c.rowTables(i), shards[:c.k], out)
		shards[i] = out
	}
	return nil
}

// decodeMatrixFor returns the inverted decode matrix for the chosen
// present-shard set, consulting the loss-pattern LRU first.
func (c *Codec16) decodeMatrixFor(chosen []int) (matrix16, error) {
	key := chosenKey(chosen, c.n)
	if dec, ok := c.dec.get(key); ok {
		return dec, nil
	}
	sub := newMatrix16(c.k, c.k)
	for r, idx := range chosen {
		copy(sub.row(r), c.encode.row(idx))
	}
	dec, err := sub.invert()
	if err != nil {
		return matrix16{}, fmt.Errorf("rs: decode matrix16: %w", err)
	}
	c.dec.put(key, dec)
	return dec, nil
}

// Verify checks parity consistency; all shards must be present.
func (c *Codec16) Verify(shards [][]byte) (bool, error) {
	if len(shards) != c.n {
		return false, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), c.n)
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			return false, fmt.Errorf("%w: shard %d is missing", ErrShardCount, i)
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return false, ErrShardSize
		}
	}
	if size%2 != 0 {
		return false, fmt.Errorf("%w: odd shard size %d", ErrShardSize, size)
	}
	if c.fft != nil {
		// Recompute all parity via the FFT path into pooled scratch and
		// compare — the same O(k log k) cost as Encode.
		tmp := c.scratch.get(c.n-c.k, size)
		defer c.scratch.put(tmp)
		shadow := c.hdrs.get(c.n, 0)
		defer c.hdrs.put(shadow)
		copy(shadow, shards[:c.k])
		for i := c.k; i < c.n; i++ {
			shadow[i] = tmp[i-c.k]
		}
		c.encodeFFT(shadow, size)
		for i := c.k; i < c.n; i++ {
			if !bytes.Equal(shadow[i], shards[i]) {
				return false, nil
			}
		}
		return true, nil
	}
	buf := c.scratch.get(1, size)
	defer c.scratch.put(buf)
	for i := c.k; i < c.n; i++ {
		mulRowInto(c.rowTables(i), shards[:c.k], buf[0])
		if !bytes.Equal(buf[0], shards[i]) {
			return false, nil
		}
	}
	return true, nil
}

func checkEvenShards(data [][]byte) (int, error) {
	size := -1
	for i, s := range data {
		if s == nil {
			return 0, fmt.Errorf("%w: data shard %d is nil", ErrShardCount, i)
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("%w: shard %d has %d bytes, want %d", ErrShardSize, i, len(s), size)
		}
	}
	if size == 0 {
		return 0, fmt.Errorf("%w: empty shards", ErrShardSize)
	}
	if size%2 != 0 {
		return 0, fmt.Errorf("%w: odd shard size %d (GF(2^16) needs 16-bit words)", ErrShardSize, size)
	}
	return size, nil
}
