//go:build !amd64

package mtree

import "unsafe"

// Non-amd64 builds score through the pure-Go schedules in fmadot.go,
// which are the bit-exact reference the asm kernels replicate.

const (
	useAsmDot = false
	useAsm512 = false
)

func dotRowsBlockAsm(rows *unsafe.Pointer, lis *int32, coefs, intercepts *float64, w, n int64, out *float64) {
	panic("mtree: asm dot kernel called on a build without one")
}

func predictRowsFusedAsm(samples unsafe.Pointer, stride, n, w int64,
	boxes *float64, boxB int64, box0 *float64, packed *uint64,
	thr *float64, interior, rootExt int64, coefs, intercepts *float64,
	trans *int32, sentLeaf int64, out *float64) int64 {
	panic("mtree: fused scoring kernel called on a build without one")
}
