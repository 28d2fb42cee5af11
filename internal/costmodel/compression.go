package costmodel

import "fmt"

// Closed forms for the compressed-distribution extension: when the
// FedAvg-layer model messages travel quantized or sparsified
// (internal/compress), the cost unit of those messages shrinks from
// 8·dim to the encoded block size below. The block layouts are fixed by
// the wire codec (internal/wire, delta.go); these formulas restate them
// independently so measured transport bytes, the wire encoder and this
// model can be cross-checked three ways.

// QuantBlockBytes returns the encoded size of a dense fixed-point block
// of dim coordinates at the given quantization width (1: int8, 2:
// int16): 13 bytes of block header (width + f64 scale + u32 count) plus
// width·dim values.
func QuantBlockBytes(width, dim int) (int64, error) {
	if width != 1 && width != 2 {
		return 0, fmt.Errorf("costmodel: quant width %d, want 1 or 2", width)
	}
	if dim < 0 {
		return 0, fmt.Errorf("costmodel: dim %d", dim)
	}
	return 13 + int64(width)*int64(dim), nil
}

// SparseBlockBytes returns the encoded size of a top-k sparse block
// keeping k of dim coordinates: u32 dim + u32 count + width byte, plus
// 4k index bytes, plus 8k value bytes at full precision (width 0) or an
// f64 scale and width·k quantized values (width 1 or 2).
func SparseBlockBytes(width, k int) (int64, error) {
	if k < 0 {
		return 0, fmt.Errorf("costmodel: k = %d", k)
	}
	switch width {
	case 0:
		return 9 + 12*int64(k), nil
	case 1, 2:
		return 17 + (4+int64(width))*int64(k), nil
	}
	return 0, fmt.Errorf("costmodel: sparse width %d, want 0, 1 or 2", width)
}

// DistributionMessages returns the number of FedAvg-layer model messages
// in one full-participation two-layer round over the given subgroup
// sizes: (m−1) uploads + (m−1) downloads + Σ(n_g−1) broadcasts, i.e.
// 2(m−1) + (N−m). These are exactly the messages compression applies to;
// the SAC-layer share/subtotal traffic stays at its 8·dim unit.
func DistributionMessages(sizes []int) (int64, error) {
	if len(sizes) == 0 {
		return 0, fmt.Errorf("costmodel: no subgroups")
	}
	total := 2 * int64(len(sizes)-1)
	for _, n := range sizes {
		if n < 1 {
			return 0, fmt.Errorf("costmodel: subgroup size %d", n)
		}
		total += int64(n - 1)
	}
	return total, nil
}

// DistributionBytes returns the FedAvg-layer distribution traffic of one
// full-participation round when every model message costs msgBytes —
// 8·dim uncompressed, or a QuantBlockBytes/SparseBlockBytes unit under
// compression. internal/core charges exactly this: the tests drive a
// round at several N and compare the fedavg/* counters against it.
func DistributionBytes(sizes []int, msgBytes int64) (int64, error) {
	if msgBytes < 0 {
		return 0, fmt.Errorf("costmodel: message bytes %d", msgBytes)
	}
	msgs, err := DistributionMessages(sizes)
	if err != nil {
		return 0, err
	}
	return msgs * msgBytes, nil
}
