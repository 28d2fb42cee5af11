package tensor

// cpuAVX2 reports whether this CPU runs AVX2 and the operating system
// saves the YMM registers across context switches: CPUID.1:ECX has
// OSXSAVE (bit 27) and AVX (bit 28), XCR0 has the XMM and YMM state bits
// (1 and 2) set, and CPUID.(7,0):EBX has AVX2 (bit 5).
func cpuAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	if xgetbv0()&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// cpuid executes CPUID with EAX = eaxArg and ECX = ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0.
func xgetbv0() (eax uint32)
