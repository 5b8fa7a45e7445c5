//go:build go1.24

package netsim

import (
	"runtime"
	"testing"
	"weak"
)

// TestAtVirtualReleasesRanCallbacks: an AtVirtual callback that has run
// is not kept alive by the instrumentation heap's backing array, and
// neither is what it captured.
func TestAtVirtualReleasesRanCallbacks(t *testing.T) {
	c := NewCluster(1, Profile{})
	captured := scheduleCapturing(c)
	c.Run(100)
	runtime.GC()
	runtime.GC()
	if captured.Value() != nil {
		t.Fatal("an object captured only by a callback that has run is still reachable")
	}
	runtime.KeepAlive(c)
}

// scheduleCapturing schedules a callback holding the only reference to a
// fresh object and returns a weak pointer to that object.
func scheduleCapturing(c *Cluster) weak.Pointer[[64]int64] {
	obj := new([64]int64)
	c.AtVirtual(10, func() { obj[0]++ })
	return weak.Make(obj)
}
