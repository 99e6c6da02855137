//go:build !pardis_poison

package giop

// poison is a no-op without the pardis_poison build tag, so release
// points cost nothing extra in a normal build.
func poison([]byte) {}
