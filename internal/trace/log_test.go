package trace

import (
	"os"
	"path/filepath"
	"testing"

	"videocdn/internal/chunk"
)

// event is one kinded record, as a Log takes it and an EventCursor
// gives it back.
type event struct {
	k Kind
	r Request
}

// genEvents is n records of every kind, times non-decreasing from t0.
func genEvents(n int, t0 int64) []event {
	out := make([]event, n)
	for i := range out {
		r := Request{Time: t0 + int64(i/3), Video: chunk.VideoID(1 + i%7), Start: int64(i % 5), End: int64(i%5) + int64(i%11)*100}
		out[i] = event{Kind(i % int(numKinds)), r}
	}
	return out
}

// readEvents streams a directory's records with their kinds.
func readEvents(t *testing.T, dir string) []event {
	t.Helper()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := d.Cursor()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var out []event
	for {
		var r Request
		ok, err := cur.Next(&r)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		k := KindRequest
		if ec, isEvent := cur.(EventCursor); isEvent {
			k = ec.Kind()
		}
		out = append(out, event{k, r})
	}
}

func sameEvents(t *testing.T, got, want []event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestLogAppendsOnePartPerOpen: each OpenLog appends one part after
// the ones before; the directory replays every record with its kind in
// append order, ties across parts included, and LastTime resumes from
// the last record.
func TestLogAppendsOnePartPerOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	var all []event
	for open := 0; open < 3; open++ {
		l, err := OpenLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		last, ok := l.LastTime()
		if ok != (open > 0) || (ok && last != all[len(all)-1].r.Time) {
			t.Fatalf("open %d: LastTime (%d, %v) after %d records", open, last, ok, len(all))
		}
		t0 := int64(0)
		if ok {
			t0 = last // a restart's first records tie the last ones
		}
		evs := genEvents(600+open, t0)
		for _, e := range evs {
			l.Append(e.k, e.r)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		all = append(all, evs...)
		sameEvents(t, readEvents(t, dir), all)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man := d.Manifest(); man.Version != 2 || man.Parts != 3 || len(man.Segments) != 3 {
		t.Fatalf("manifest: version %d, %d parts, %d segments", man.Version, man.Parts, len(man.Segments))
	}
}

// TestLogRepairsCrashedPart abandons a log as a crash would, with one
// block written and the next still in memory: the next OpenLog keeps
// the whole block and drops the rest.
func TestLogRepairsCrashedPart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	l, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	evs := genEvents(LogBlockRecords+40, 5)
	for _, e := range evs {
		l.Append(e.k, e.r)
	}
	close(l.full) // the writer finishes the full block; nothing else is written
	<-l.done
	if l.err != nil {
		t.Fatal(l.err)
	}
	if l, err = OpenLog(dir); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sameEvents(t, readEvents(t, dir), evs[:LogBlockRecords])
}

// TestRepairKeepsWholeBlocks cuts a segment at every byte and repairs
// it: the repaired segment holds exactly the records of the blocks
// wholly before the cut, in order — repair never invents or reorders a
// record.
func TestRepairKeepsWholeBlocks(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, segFileName(0, 0))
	sw, err := newSegWriter(full, 0, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	pw := &PartWriter{seg: sw}
	evs := genEvents(45, 100)
	for _, e := range evs {
		if err := pw.WriteKind(e.k, e.r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, segFileName(0, 1))
	for n := 0; n <= len(data); n++ {
		if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := repairSeg(cut, 1); err != nil {
			t.Fatalf("cut at %d: %v", n, err)
		}
		kept := 0 // records of the blocks that end at or before the cut
		for i, e := range sw.index {
			end := sw.off // the index follows the last block
			if i+1 < len(sw.index) {
				end = sw.index[i+1].offset
			}
			if int(end) <= n {
				kept += int(e.count)
			}
		}
		sc, err := openSeg(cut, nil)
		if err != nil {
			t.Fatalf("cut at %d: repaired segment does not open: %v", n, err)
		}
		var got []event
		for {
			var r Request
			ok, err := sc.Next(&r)
			if err != nil {
				t.Fatalf("cut at %d: %v", n, err)
			}
			if !ok {
				break
			}
			got = append(got, event{sc.Kind(), r})
		}
		sc.Close()
		if len(got) != kept {
			t.Fatalf("cut at %d: repair kept %d records, want %d", n, len(got), kept)
		}
		sameEvents(t, got, evs[:kept])
	}
}
