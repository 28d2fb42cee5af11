package experiments

import "testing"

func TestExt6CompressionCurve(t *testing.T) {
	res, err := ext6CompressionCurve(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Setting != "none" {
		t.Fatalf("first row = %q", res.Rows[0].Setting)
	}
	ref := res.Rows[0]
	for _, row := range res.Rows[1:] {
		if row.Bytes >= ref.Bytes {
			t.Fatalf("%s used %dB, not cheaper than uncompressed %dB", row.Setting, row.Bytes, ref.Bytes)
		}
		if row.FinalAcc < 0 || row.FinalAcc > 1 {
			t.Fatalf("accuracy out of range: %+v", row)
		}
	}
	// Deeper compression must strictly shrink traffic: quant8 < quant16,
	// and the sparse-quantized settings below both.
	byLabel := map[string]int64{}
	for _, row := range res.Rows {
		byLabel[row.Setting] = row.Bytes
	}
	if byLabel["quant8"] >= byLabel["quant16"] {
		t.Fatal("quant8 not cheaper than quant16")
	}
	if byLabel["topk-quant8 k=10%"] >= byLabel["topk-quant8 k=25%"] {
		t.Fatal("k=10% not cheaper than k=25%")
	}
}
