//go:build !amd64

package mem

import "repro/internal/units"

// kernelSupported reports false: the uniform kernel is amd64 assembly.
func kernelSupported() bool { return false }

// uniformBlocks leaves every draw to the Go loop.
func uniformBlocks(d []uint64, s, span uint64, n int64) (done int64, next uint64, added units.Pages) {
	return 0, s, 0
}
