package noc

import (
	"testing"
	"unsafe"
)

// TestFlitIs16Bytes: VC buffers, link queues and WI queues hold flits by
// value, so the field order that packs a flit into 16 bytes is worth
// keeping.
func TestFlitIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Flit{}); got != 16 {
		t.Fatalf("noc.Flit is %d bytes, want 16", got)
	}
}
