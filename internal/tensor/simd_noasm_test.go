//go:build !amd64

package tensor

import "testing"

// kernelModes runs fn on the scalar fallback, the only float kernel set
// off amd64.
func kernelModes(t *testing.T, fn func(t *testing.T)) { t.Run("generic", fn) }
