package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// fillTrack records a simple deliver series seq 1..n on one rank of a
// fresh recorder, the shape an ensemble-node process dumps: every rank
// has a track, only the hosted member's has records.
func nodeDump(members, rank, n int) []byte {
	rec := NewRecorder(members, 64)
	trk := rec.Track(rank)
	for s := 1; s <= n; s++ {
		trk.Record(int64(s)*1000, KindDeliver, DirUp, 0, int64(s))
	}
	return rec.DumpBytes()
}

func TestMergeDumpsInterleavesProcessTracks(t *testing.T) {
	const members = 4
	dumps := make([][]byte, members)
	for r := 0; r < members; r++ {
		dumps[r] = nodeDump(members, r, 5+r)
	}
	merged, err := MergeDumps(dumps...)
	if err != nil {
		t.Fatal(err)
	}
	tracks, err := ParseDump(merged)
	if err != nil {
		t.Fatalf("merged image does not parse: %v", err)
	}
	if len(tracks) != members {
		t.Fatalf("merged dump has %d tracks, want %d", len(tracks), members)
	}
	for r := 0; r < members; r++ {
		if got, want := len(tracks[r]), 5+r; got != want {
			t.Fatalf("rank %d: %d records after merge, want %d", r, got, want)
		}
		for i, rec := range tracks[r] {
			if rec.Rank != int16(r) || rec.Seq != int64(i+1) {
				t.Fatalf("rank %d record %d mangled: %+v", r, i, rec)
			}
		}
	}
	// Determinism: merging in any input order encodes identical bytes.
	merged2, err := MergeDumps(dumps[3], dumps[1], dumps[0], dumps[2])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, merged2) {
		t.Fatal("merge result depends on input order")
	}
}

func TestMergeDumpsRejectsRankCollision(t *testing.T) {
	a := nodeDump(3, 1, 4)
	b := nodeDump(3, 1, 6) // a second process claiming member 1
	if _, err := MergeDumps(a, b); err == nil {
		t.Fatal("two processes recording the same rank merged without error")
	} else if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("collision error does not name the rank: %v", err)
	}
}

func TestMergeDumpsRejectsGarbage(t *testing.T) {
	if _, err := MergeDumps(nodeDump(2, 0, 1), []byte("not a dump")); err == nil {
		t.Fatal("garbage input merged without error")
	}
}

func TestWriteChromeTraceDumpFromMerge(t *testing.T) {
	merged, err := MergeDumps(nodeDump(2, 0, 3), nodeDump(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceDump(&buf, merged); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not JSON: %v", err)
	}
	counts := map[int]int{}
	for _, e := range doc.TraceEvents {
		if e.Name == "Deliver" {
			counts[e.TID]++
		}
	}
	if counts[0] != 3 || counts[1] != 2 {
		t.Fatalf("merged trace deliver counts per track = %v, want {0:3 1:2}", counts)
	}
}

// TestDiffDumpsReportsInjectedDivergence pins the flight-diff contract:
// two flights identical except for one perturbed record diverge at
// exactly that record's seqno, and the divergence names the layer and
// both sides' virtual times.
func TestDiffDumpsReportsInjectedDivergence(t *testing.T) {
	mk := func(perturbAt int64) []byte {
		rec := NewRecorder(2, 128)
		for rank := 0; rank < 2; rank++ {
			trk := rec.Track(rank)
			for s := int64(1); s <= 20; s++ {
				layer := uint8(3)
				if rank == 1 && s == perturbAt {
					layer = 7 // the injected fault: one record at a different layer
				}
				trk.Record(s*100, KindDeliver, DirUp, layer, s)
			}
		}
		return rec.DumpBytes()
	}
	clean, perturbed := mk(-1), mk(13)
	divs, err := DiffDumps(clean, perturbed, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(divs) != 1 {
		t.Fatalf("got %d divergences, want exactly the injected one: %v", len(divs), divs)
	}
	d := divs[0]
	if d.Rank != 1 || d.Kind != KindDeliver || d.Seq != 13 || d.Reason != "layer" {
		t.Fatalf("divergence misreported: %+v", d)
	}
	if d.A == nil || d.B == nil || d.A.Layer != 3 || d.B.Layer != 7 || d.A.T != 1300 {
		t.Fatalf("divergence records incomplete: %s", d)
	}

	// Identical dumps: no divergence.
	if divs, _ := DiffDumps(clean, clean, DiffOptions{}); len(divs) != 0 {
		t.Fatalf("identical dumps diverged: %v", divs)
	}
}

// TestDiffDumpsMissingRecord: a record present on one side only is
// reported at its seqno with the missing side identified.
func TestDiffDumpsMissingRecord(t *testing.T) {
	mk := func(drop int64) []byte {
		rec := NewRecorder(1, 128)
		trk := rec.Track(0)
		for s := int64(1); s <= 10; s++ {
			if s == drop {
				continue
			}
			trk.Record(s*100, KindDeliver, DirUp, 0, s)
		}
		return rec.DumpBytes()
	}
	divs, err := DiffDumps(mk(-1), mk(6), DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(divs) != 1 || divs[0].Seq != 6 || divs[0].Reason != "missing in B" || divs[0].B != nil {
		t.Fatalf("dropped record misreported: %v", divs)
	}
	// And symmetrically.
	divs, _ = DiffDumps(mk(6), mk(-1), DiffOptions{})
	if len(divs) != 1 || divs[0].Seq != 6 || divs[0].Reason != "missing in A" || divs[0].A != nil {
		t.Fatalf("dropped record misreported in reverse: %v", divs)
	}
}

// TestDiffDumpsRingWrapAlignment: one side's ring retained less history
// (wrapped earlier); the common suffix compares clean, so differing
// retention alone is not a divergence — alignment is by seqno, not
// position.
func TestDiffDumpsRingWrapAlignment(t *testing.T) {
	mk := func(ring int) []byte {
		rec := NewRecorder(1, ring)
		trk := rec.Track(0)
		for s := int64(1); s <= 50; s++ {
			trk.Record(s*100, KindDeliver, DirUp, 0, s)
		}
		return rec.DumpBytes()
	}
	divs, err := DiffDumps(mk(128), mk(16), DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(divs) != 0 {
		t.Fatalf("ring-wrap retention difference reported as divergence: %v", divs)
	}
}

// TestDiffDumpsKindFilterAndTime: cross-substrate diffs filter to the
// delivery series and ignore timestamps; CompareTime turns timestamp
// comparison back on for same-clock runs.
func TestDiffDumpsKindFilterAndTime(t *testing.T) {
	mk := func(tscale int64, sweeps int) []byte {
		rec := NewRecorder(1, 128)
		trk := rec.Track(0)
		for s := int64(1); s <= int64(sweeps); s++ {
			trk.Record(s*7, KindTimerSweep, DirUp, 0, s)
		}
		for s := int64(1); s <= 5; s++ {
			trk.Record(s*tscale, KindDeliver, DirUp, 0, s)
		}
		return rec.DumpBytes()
	}
	// Different timer-sweep counts and different delivery timings — the
	// substrate-independent delivery series still matches.
	a, b := mk(100, 9), mk(3333, 2)
	divs, err := DiffDumps(a, b, DiffOptions{Kinds: []Kind{KindDeliver}})
	if err != nil {
		t.Fatal(err)
	}
	if len(divs) != 0 {
		t.Fatalf("delivery-filtered diff found divergence: %v", divs)
	}
	// Unfiltered, the sweep series diverges (at the first seq only one
	// side retained… here at the count mismatch).
	divs, _ = DiffDumps(a, b, DiffOptions{})
	if len(divs) == 0 {
		t.Fatal("unfiltered diff missed the timer-sweep mismatch")
	}
	// Same data, timestamps scaled: CompareTime reports it, default not.
	divs, _ = DiffDumps(mk(100, 3), mk(200, 3), DiffOptions{Kinds: []Kind{KindDeliver}})
	if len(divs) != 0 {
		t.Fatalf("timestamp-only difference reported without CompareTime: %v", divs)
	}
	divs, _ = DiffDumps(mk(100, 3), mk(200, 3), DiffOptions{Kinds: []Kind{KindDeliver}, CompareTime: true})
	if len(divs) == 0 || divs[0].Reason != "time" {
		t.Fatalf("CompareTime missed the timestamp divergence: %v", divs)
	}
}

func TestParseKind(t *testing.T) {
	for _, name := range []string{"Deliver", "PktOut", "PktIn", "TimerSweep", "ViewInstall", "Flush", "CCPHit", "CCPMiss"} {
		k, ok := ParseKind(name)
		if !ok || k.String() != name {
			t.Fatalf("ParseKind(%q) = %v %v", name, k, ok)
		}
	}
	if _, ok := ParseKind("NoSuchKind"); ok {
		t.Fatal("ParseKind accepted garbage")
	}
}

// --- Edge cases: the shapes a merge/diff pipeline meets in the wild ---

// TestMergeDumpsNoInput: merging nothing is a valid (empty) dump, and
// diffing two empty dumps reports nothing — the degenerate base case a
// launcher hits when every node failed before dumping.
func TestMergeDumpsNoInput(t *testing.T) {
	merged, err := MergeDumps()
	if err != nil {
		t.Fatal(err)
	}
	tracks, err := ParseDump(merged)
	if err != nil {
		t.Fatalf("empty merge does not round-trip: %v", err)
	}
	if len(tracks) != 0 {
		t.Fatalf("empty merge has %d tracks", len(tracks))
	}
	if divs, err := DiffDumps(merged, merged, DiffOptions{}); err != nil || len(divs) != 0 {
		t.Fatalf("empty-vs-empty diff: %v %v", divs, err)
	}
}

// TestMergeDumpsSingleInput: a one-dump merge is the identity — same
// bytes out, all-empty tracks preserved.
func TestMergeDumpsSingleInput(t *testing.T) {
	d := nodeDump(3, 2, 4)
	merged, err := MergeDumps(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, d) {
		t.Fatal("single-input merge is not the identity")
	}
	// Even a dump whose every track is empty merges to itself.
	empty := NewRecorder(2, 8).DumpBytes()
	merged, err = MergeDumps(empty)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, empty) {
		t.Fatal("all-empty merge is not the identity")
	}
}

// TestDiffDumpsDuplicateSeq: a ring that recorded the same
// (rank,kind,seq) twice (a retransmitted wire image, a re-recorded
// delivery) must diff clean against an identical ring and diverge
// against one that collapsed the duplicate — duplicates are data, not
// noise to be dropped.
func TestDiffDumpsDuplicateSeq(t *testing.T) {
	mk := func(dup bool) []byte {
		rec := NewRecorder(1, 64)
		trk := rec.Track(0)
		trk.Record(100, KindDeliver, DirUp, 0, 1)
		trk.Record(200, KindDeliver, DirUp, 0, 2)
		if dup {
			trk.Record(250, KindDeliver, DirUp, 0, 2) // the duplicate
		}
		trk.Record(300, KindDeliver, DirUp, 0, 3)
		return rec.DumpBytes()
	}
	if divs, err := DiffDumps(mk(true), mk(true), DiffOptions{}); err != nil || len(divs) != 0 {
		t.Fatalf("identical dumps with duplicates diverge: %v %v", divs, err)
	}
	divs, err := DiffDumps(mk(true), mk(false), DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(divs) == 0 {
		t.Fatal("diff missed a collapsed duplicate record")
	}
}

// TestDiffDumpsRingsWrappedAtDifferentPoints: both sides wrapped, but
// at different positions — the surviving windows only partially
// overlap. The common suffix still compares clean; perturbing a record
// inside the overlap is still caught.
func TestDiffDumpsRingsWrappedAtDifferentPoints(t *testing.T) {
	mk := func(ring int, perturbAt int64) []byte {
		rec := NewRecorder(1, ring)
		trk := rec.Track(0)
		for s := int64(1); s <= 100; s++ {
			layer := uint8(2)
			if s == perturbAt {
				layer = 9
			}
			trk.Record(s*10, KindDeliver, DirUp, layer, s)
		}
		return rec.DumpBytes()
	}
	// 32-slot ring keeps seqs 69..100, 48-slot keeps 53..100: different
	// wrap points, overlapping suffix, no divergence.
	if divs, err := DiffDumps(mk(32, -1), mk(48, -1), DiffOptions{}); err != nil || len(divs) != 0 {
		t.Fatalf("different wrap points reported as divergence: %v %v", divs, err)
	}
	// A perturbation inside the overlap is still found at its seqno.
	divs, err := DiffDumps(mk(32, -1), mk(48, 80), DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(divs) != 1 || divs[0].Seq != 80 {
		t.Fatalf("perturbation inside the overlap misreported: %v", divs)
	}
	// A perturbation outside the overlap (only the bigger ring retains
	// it) cannot be seen — and must not produce a false divergence.
	if divs, _ := DiffDumps(mk(32, -1), mk(48, 60), DiffOptions{}); len(divs) != 0 {
		t.Fatalf("perturbation outside the common window reported: %v", divs)
	}
}

// TestMergeDumpsDisjointRanks: dumps carrying disjoint populated ranks
// with different track counts merge into the union.
func TestMergeDumpsDisjointRanks(t *testing.T) {
	merged, err := MergeDumps(nodeDump(4, 0, 2), nodeDump(4, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	tracks, err := ParseDump(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != 4 || len(tracks[0]) != 2 || len(tracks[3]) != 5 || len(tracks[1]) != 0 {
		t.Fatalf("union merge wrong: %d tracks, %d/%d/%d recs",
			len(tracks), len(tracks[0]), len(tracks[3]), len(tracks[1]))
	}
}

// TestDumpBytesIsEncodeDump: a recorder's dump is the EncodeDump image
// of its own parse — one record layout — across wrapped, partly filled
// and empty rings.
func TestDumpBytesIsEncodeDump(t *testing.T) {
	rec := NewRecorder(3, 16)
	for s := int64(1); s <= 50; s++ {
		rec.Track(0).Record(s*100, KindDeliver, DirUp, uint8(s), s) // wraps three times
	}
	for s := int64(1); s <= 5; s++ {
		rec.Track(2).Record(s*7, KindCCPHit, DirDn, 3, -s)
	}
	dump := rec.DumpBytes()
	tracks, err := ParseDump(dump)
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks[0]) != 16 || tracks[0][0].Seq != 35 || len(tracks[1]) != 0 || len(tracks[2]) != 5 {
		t.Fatalf("parsed %d, %d and %d records (oldest kept %+v)", len(tracks[0]), len(tracks[1]), len(tracks[2]), tracks[0][0])
	}
	if again := EncodeDump(tracks); !bytes.Equal(again, dump) {
		t.Fatalf("EncodeDump(ParseDump(dump)) differs: %d bytes vs %d", len(again), len(dump))
	}
}
