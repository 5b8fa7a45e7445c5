package bench

import (
	"fmt"
	"strings"

	"ensemble/internal/layers"
)

// WireTable reports what the wire format costs and saves on the
// compression gate's workload — an 8-member MACH group casting
// minimum-size (header-dominated) messages over a 10-layer stack. The
// figure of merit is bytes on the wire per application message during
// the data phase (see NetThroughput.BytesPerMsg for the measurement
// window), set against the same run's unbatched-classic yardstick
// (NetThroughput.ClassicBytesPerMsg).
//
// Beyond bytes/msg and the coalescing factor, the table breaks down
// where the savings come from: `xdelta-1st` is the share of frames whose
// FIRST sub rode the previous frame's base instead of a full header, and
// the flush columns attribute every emitted frame batch to its cause —
// size-limit, entry-end, or barrier — plus the frames held back at a
// flush point.
func WireTable(rounds int) (string, error) {
	return WireTableAt(8, rounds)
}

// WireTableAt is WireTable at an arbitrary group size — the
// EXPERIMENTS.md bytes-on-wire tables run it at 8 and 64 members.
func WireTableAt(members, rounds int) (string, error) {
	const size, seed, workers = 8, 7, 1
	nt, err := MeasureNetThroughput(MACH, layers.Stack10(), members, size, rounds, seed, workers)
	if err != nil {
		return "", err
	}
	bs := nt.Batch
	var b strings.Builder
	fmt.Fprintf(&b, "Bytes on the wire per message (%d-member MACH cast workload, 10-layer stack, %d rounds)\n",
		members, rounds)
	fmt.Fprintf(&b, "%-28s %10s %10s %10s %10s %22s %6s\n",
		"framing", "bytes/msg", "subs/frame", "msgs/sec", "xdelta-1st", "flushes(sz/entry/barr)", "holds")
	fmt.Fprintf(&b, "%-28s %10.2f %10.2f\n", "unbatched classic (computed)", nt.ClassicBytesPerMsg, 1.0)
	fmt.Fprintf(&b, "%-28s %10.2f %10.2f %10.0f %9.0f%% %22s %6d\n",
		"0xB9 frames (measured)", nt.BytesPerMsg, nt.SubsPerFrame, nt.MsgsPerSec,
		float64(bs.XFirstDelta)/float64(bs.XFrames)*100,
		fmt.Sprintf("%d/%d/%d", bs.SizeFlushes, bs.EntryEndFlushes, bs.BarrierFlushes),
		bs.Holds)
	fmt.Fprintf(&b, "0xB9 vs unbatched classic: %+.1f%% bytes/msg\n", (nt.BytesPerMsg/nt.ClassicBytesPerMsg-1)*100)
	return b.String(), nil
}
