package compress

import (
	"fmt"
	"math"

	"repro/internal/wire"
)

// Scheme selects a compression scheme for model-delta traffic.
type Scheme int

const (
	// None ships full-fat float64 vectors (the default everywhere:
	// compression is strictly opt-in, and None reproduces the
	// uncompressed byte counts and training curves bit for bit).
	None Scheme = iota
	// Quant8 quantizes every coordinate to an int8 step (8× smaller).
	Quant8
	// Quant16 quantizes every coordinate to an int16 step (4× smaller).
	Quant16
	// TopK keeps the Frac·dim largest-magnitude coordinates at full
	// float64 precision (index block + value block).
	TopK
	// TopKQuant8 keeps Frac·dim coordinates and int8-quantizes them.
	TopKQuant8
	// TopKQuant16 keeps Frac·dim coordinates and int16-quantizes them.
	TopKQuant16
)

// String names the scheme as used in experiment labels.
func (s Scheme) String() string {
	switch s {
	case None:
		return "none"
	case Quant8:
		return "quant8"
	case Quant16:
		return "quant16"
	case TopK:
		return "topk"
	case TopKQuant8:
		return "topk-quant8"
	case TopKQuant16:
		return "topk-quant16"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Config parameterizes compression of model-delta messages. The zero
// value means "off".
type Config struct {
	// Scheme selects the compression (None: off).
	Scheme Scheme
	// Frac is the kept-coordinate fraction for the TopK schemes,
	// in (0, 1]; 0 defaults to 0.1. Ignored by the dense schemes.
	Frac float64
}

// Enabled reports whether the config compresses anything.
func (c Config) Enabled() bool { return c.Scheme != None }

// Validate rejects malformed configs.
func (c Config) Validate() error {
	switch c.Scheme {
	case None, Quant8, Quant16, TopK, TopKQuant8, TopKQuant16:
	default:
		return fmt.Errorf("compress: unknown scheme %d", int(c.Scheme))
	}
	if c.Frac < 0 || c.Frac > 1 {
		return fmt.Errorf("compress: top-k fraction %v out of (0,1]", c.Frac)
	}
	return nil
}

// width returns the quantization width in bytes (0: full float64).
func (c Config) width() int {
	switch c.Scheme {
	case Quant8, TopKQuant8:
		return 1
	case Quant16, TopKQuant16:
		return 2
	}
	return 0
}

func (c Config) sparse() bool {
	return c.Scheme == TopK || c.Scheme == TopKQuant8 || c.Scheme == TopKQuant16
}

// Kept returns the kept-coordinate count for a dim-element vector: the
// rounded Frac·dim for top-k schemes (at least 1 for non-empty
// vectors), dim otherwise.
func (c Config) Kept(dim int) int {
	if !c.sparse() {
		return dim
	}
	f := c.Frac
	if f == 0 {
		f = 0.1
	}
	k := int(math.Round(f * float64(dim)))
	if k < 1 && dim > 0 {
		k = 1
	}
	if k > dim {
		k = dim
	}
	return k
}

// MessageBytes returns the exact accounted byte size of one compressed
// model-delta message of dimension dim — the encoded block size, the
// compressed counterpart of the 8·dim the transports charge for a
// float64 payload (frame header and routing envelope are excluded on
// both sides, keeping the paper's cost unit). Deterministic closed
// form; internal/costmodel restates it and the tests cross-check both
// against the length of the encoded block.
func (c Config) MessageBytes(dim int) int64 {
	switch c.Scheme {
	case None:
		return int64(8 * dim)
	case Quant8, Quant16:
		return int64(wire.QuantBlockSize(c.width(), dim))
	}
	return int64(wire.SparseBlockSize(c.width(), c.Kept(dim)))
}

// Delta is one compressed vector: exactly one of Quant/Sparse is set.
type Delta struct {
	Quant  *wire.QuantDelta
	Sparse *wire.SparseDelta
	// Bound is the error accounting of this compression.
	Bound Bound
}

// Compress encodes w under the config's scheme. It returns an error for
// invalid configs or Scheme None (callers gate on Enabled).
func (c Config) Compress(w []float64) (Delta, error) {
	if err := c.Validate(); err != nil {
		return Delta{}, err
	}
	switch c.Scheme {
	case None:
		return Delta{}, fmt.Errorf("compress: Compress called with scheme none")
	case Quant8, Quant16:
		q, b, err := Quantize(w, c.width(), nil)
		if err != nil {
			return Delta{}, err
		}
		return Delta{Quant: &q, Bound: b}, nil
	}
	s, b, err := Sparsify(w, c.Kept(len(w)), c.width())
	if err != nil {
		return Delta{}, err
	}
	return Delta{Sparse: &s, Bound: b}, nil
}

// Dense reconstructs the compressed vector into dst (reused when its
// capacity suffices).
func (d Delta) Dense(dst []float64) []float64 {
	if d.Quant != nil {
		return Dequantize(*d.Quant, dst)
	}
	return d.Sparse.Dense(dst)
}

// EncodedBytes returns the accounted size of this delta's block — equal
// to Config.MessageBytes for the dimension it was compressed from.
func (d Delta) EncodedBytes() int64 {
	if d.Quant != nil {
		return int64(wire.QuantBlockSize(d.Quant.Width, len(d.Quant.Q)))
	}
	return int64(wire.SparseBlockSize(d.Sparse.Width, len(d.Sparse.Idx)))
}
