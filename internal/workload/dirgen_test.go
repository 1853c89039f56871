package workload

import (
	"testing"

	"videocdn/internal/chunk"
	"videocdn/internal/trace"
)

// dirTestProfile is a small, fast profile for the directory tests.
func dirTestProfile() Profile {
	p := Profiles()[1] // asia
	p.RequestsPerDay = 3000
	p.CatalogSize = 400
	p.NewVideosPerDay = 10
	return p
}

func TestGenerateDirSinglePartMatchesGenerate(t *testing.T) {
	p := dirTestProfile()
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	want, err := g.Generate(2)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dir := t.TempDir()
	st, err := GenerateDir(p, 2, dir, DirGenOptions{Shards: 4})
	if err != nil {
		t.Fatalf("GenerateDir: %v", err)
	}
	if st.Requests != len(want) {
		t.Fatalf("stats report %d requests, want %d", st.Requests, len(want))
	}
	d, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	got, err := trace.Materialize(d)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d requests, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("request %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestGenerateDirParallelParts(t *testing.T) {
	p := dirTestProfile()
	dir := t.TempDir()
	st, err := GenerateDir(p, 2, dir, DirGenOptions{Shards: 2, Workers: 4})
	if err != nil {
		t.Fatalf("GenerateDir: %v", err)
	}
	if st.Requests == 0 {
		t.Fatal("no requests generated")
	}
	// Volume should be in the ballpark of the profile (Poisson noise
	// and per-part thinning allow a wide margin).
	if st.Requests < 3000 || st.Requests > 9000 {
		t.Fatalf("suspicious request count %d for 3000 req/day x 2 days", st.Requests)
	}
	d, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	if d.Manifest().Parts != 4 {
		t.Fatalf("manifest parts = %d, want 4", d.Manifest().Parts)
	}
	if d.Len() != int64(st.Requests) {
		t.Fatalf("dir len %d, stats say %d", d.Len(), st.Requests)
	}
	// The merged stream must be time-ordered and every video ID must
	// belong to one part's 24-bit namespace.
	cur, err := trace.Sequential(d)
	if err != nil {
		t.Fatalf("Sequential: %v", err)
	}
	defer cur.Close()
	var r trace.Request
	var last int64
	n := 0
	for {
		ok, err := cur.Next(&r)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		if r.Time < last {
			t.Fatalf("request %d out of order (t=%d after %d)", n, r.Time, last)
		}
		last = r.Time
		if part := int(r.Video >> 24); part < 0 || part >= 4 {
			t.Fatalf("video %d outside any part namespace", r.Video)
		}
		// Every ID must pack into a chunk key (the replay engines
		// depend on this).
		_ = chunk.ID{Video: r.Video, Index: 0}.Key()
		n++
	}
	if n != st.Requests {
		t.Fatalf("streamed %d requests, stats say %d", n, st.Requests)
	}
}

func TestSplitProfileValidation(t *testing.T) {
	p := dirTestProfile()
	if _, err := SplitProfile(p, 0); err == nil {
		t.Fatal("accepted zero parts")
	}
	if _, err := SplitProfile(p, maxSplitParts+1); err == nil {
		t.Fatal("accepted too many parts")
	}
	one, err := SplitProfile(p, 1)
	if err != nil || len(one) != 1 || one[0] != p {
		t.Fatalf("SplitProfile(p,1) = %+v, %v; want identity", one, err)
	}
	subs, err := SplitProfile(p, 4)
	if err != nil {
		t.Fatalf("SplitProfile: %v", err)
	}
	gotReq, gotCat, gotChurn := 0, 0, 0
	seeds := map[int64]bool{}
	for i, s := range subs {
		gotReq += s.RequestsPerDay
		gotCat += s.CatalogSize
		gotChurn += s.NewVideosPerDay
		if s.IDOffset != chunk.VideoID(i)<<24 {
			t.Fatalf("part %d IDOffset = %d", i, s.IDOffset)
		}
		seeds[s.Seed] = true
	}
	if gotReq != p.RequestsPerDay || gotCat != p.CatalogSize || gotChurn != p.NewVideosPerDay {
		t.Fatalf("split does not conserve volume: %d/%d/%d vs %d/%d/%d",
			gotReq, gotCat, gotChurn, p.RequestsPerDay, p.CatalogSize, p.NewVideosPerDay)
	}
	if len(seeds) != 4 {
		t.Fatalf("parts share seeds: %v", seeds)
	}
}
