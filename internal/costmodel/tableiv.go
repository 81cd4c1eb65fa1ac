package costmodel

// TableIVRow is one literal row of the paper's Table IV for a 2-layer
// network: communication in multiples of (P-1)/P·N and sparse ops in
// multiples of nnz, as closed-form functions of (f_in, f_h, f_out).
type TableIVRow struct {
	ID     int
	Comm   func(fin, fh, fout float64) float64
	Sparse func(fin, fh, fout float64) float64
}

// KnownTableIVErrata lists the configuration IDs whose printed Table IV
// entries are internally inconsistent and treated as typographical
// errors:
//
//   - ID 13: the printed communication (f_in + 2f_h + 2f_out +
//     2min(f_h,f_out)) is identical to ID 9's, which cannot hold — the two
//     configs differ only in the backward layer-1 order, so their
//     communication must differ. The model gives 2f_in + 2f_h + 2f_out +
//     2min(f_h,f_out); the printed sparse-op entry (2f_in + f_h + f_out +
//     min(f_h,f_out)) matches the model.
//   - ID 15: the printed entries (comm f_in+4f_h+3f_out+…, sparse
//     4f_h+3f_out+…) are inconsistent with every sibling all-dense row
//     (the sparse count omits the f_in SpMM of the backward layer-1 input
//     gradient that rows 4–7 and 12–14 all include). The model gives comm
//     f_in+4f_h+2f_out+2min(f_h,f_out)+2min(f_in,f_h) and sparse
//     f_in+2f_h+f_out+min(f_h,f_out)+min(f_in,f_h).
//
// The remaining 14 rows match the generator exactly (see
// TestGeneratorMatchesTableIV).
var KnownTableIVErrata = []int{13, 15}

// TableIV returns the 16 literal rows of the paper's Table IV (IDs 0-15),
// as printed — including the two errata rows, unmodified. Each product
// that feeds a sum is rounded on its own (float64(…)) so that no
// architecture fuses it; a doubling compiles to an add and needs none.
func TableIV() []TableIVRow {
	mn := func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
	return []TableIVRow{
		{0,
			func(a, b, c float64) float64 { return a + float64(4*b) + 2*c },
			func(a, b, c float64) float64 { return a + 2*b + c }},
		{1,
			func(a, b, c float64) float64 { return a + 2*b + float64(4*c) },
			func(a, b, c float64) float64 { return a + b + 2*c }},
		{2,
			func(a, b, c float64) float64 { return float64(4*b) + 2*c },
			func(a, b, c float64) float64 { return float64(3*b) + c }},
		{3,
			func(a, b, c float64) float64 { return float64(4*b) + float64(4*c) },
			func(a, b, c float64) float64 { return 2*b + 2*c }},
		{4,
			func(a, b, c float64) float64 { return 2*a + 2*b + 2*c },
			func(a, b, c float64) float64 { return 2*a + b + c }},
		{5,
			func(a, b, c float64) float64 { return 2*a + float64(4*c) },
			func(a, b, c float64) float64 { return 2*a + 2*c }},
		{6,
			func(a, b, c float64) float64 { return a + 2*b + 2*c + 2*mn(a, b) },
			func(a, b, c float64) float64 { return a + 2*b + c + mn(a, b) }},
		{7,
			func(a, b, c float64) float64 { return a + 2*b + float64(4*c) + 2*mn(a, b) },
			func(a, b, c float64) float64 { return a + b + 2*c + mn(a, b) }},
		{8,
			func(a, b, c float64) float64 { return a + float64(4*b) },
			func(a, b, c float64) float64 { return a + float64(3*b) }},
		{9,
			func(a, b, c float64) float64 { return a + 2*b + 2*c + 2*mn(b, c) },
			func(a, b, c float64) float64 { return a + 2*b + c + mn(b, c) }},
		{10,
			func(a, b, c float64) float64 { return 4 * b },
			func(a, b, c float64) float64 { return 4 * b }},
		{11,
			func(a, b, c float64) float64 { return float64(4*b) + 2*c + 2*mn(b, c) },
			func(a, b, c float64) float64 { return float64(3*b) + c + mn(b, c) }},
		{12,
			func(a, b, c float64) float64 { return 2*a + float64(4*b) },
			func(a, b, c float64) float64 { return 2*a + 2*b }},
		{13, // erratum: printed comm duplicates ID 9's
			func(a, b, c float64) float64 { return a + 2*b + 2*c + 2*mn(b, c) },
			func(a, b, c float64) float64 { return 2*a + b + c + mn(b, c) }},
		{14,
			func(a, b, c float64) float64 { return a + float64(4*b) + 2*mn(a, b) },
			func(a, b, c float64) float64 { return a + float64(3*b) + mn(a, b) }},
		{15, // erratum: inconsistent with sibling all-dense rows
			func(a, b, c float64) float64 { return a + float64(4*b) + float64(3*c) + 2*mn(b, c) + 2*mn(a, b) },
			func(a, b, c float64) float64 { return float64(4*b) + float64(3*c) + mn(b, c) + mn(a, b) }},
	}
}
