package metrics

import (
	"testing"

	"videocdn/internal/cost"
)

func TestNewSeriesValidation(t *testing.T) {
	if _, err := NewSeries(0); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := NewSeries(-5); err == nil {
		t.Error("negative width should fail")
	}
}

func TestBucketing(t *testing.T) {
	s, err := NewSeries(10)
	if err != nil {
		t.Fatal(err)
	}
	s.Add(5, cost.Counters{Requested: 1})
	s.Add(9, cost.Counters{Requested: 2})
	s.Add(10, cost.Counters{Requested: 4})
	s.Add(35, cost.Counters{Requested: 8})
	bs := s.Buckets()
	if len(bs) != 4 {
		t.Fatalf("buckets = %d, want 4 (incl. empty interior)", len(bs))
	}
	if bs[0].Counters.Requested != 3 || bs[1].Counters.Requested != 4 {
		t.Errorf("bucket contents wrong: %+v", bs)
	}
	if bs[2].Counters.Requested != 0 {
		t.Error("interior bucket should be empty")
	}
	if bs[3].Counters.Requested != 8 {
		t.Errorf("last bucket = %+v", bs[3])
	}
	if bs[0].Start != 0 || bs[3].Start != 30 {
		t.Errorf("bucket starts: %d, %d", bs[0].Start, bs[3].Start)
	}
}

func TestOriginAnchoring(t *testing.T) {
	s, _ := NewSeries(100)
	s.Add(250, cost.Counters{Requested: 1})
	bs := s.Buckets()
	if bs[0].Start != 200 {
		t.Errorf("origin = %d, want aligned 200", bs[0].Start)
	}
}

func TestAddBeforeOriginPanics(t *testing.T) {
	s, _ := NewSeries(10)
	s.Add(100, cost.Counters{})
	defer func() {
		if recover() == nil {
			t.Error("time before origin should panic")
		}
	}()
	s.Add(50, cost.Counters{})
}

func TestTotalAndFrom(t *testing.T) {
	s, _ := NewSeries(10)
	s.Add(0, cost.Counters{Requested: 1, Filled: 1})
	s.Add(10, cost.Counters{Requested: 2, Redirected: 2})
	s.Add(20, cost.Counters{Requested: 4})
	tot := s.Total()
	if tot.Requested != 7 || tot.Filled != 1 || tot.Redirected != 2 {
		t.Errorf("Total = %+v", tot)
	}
	half := s.From(10)
	if half.Requested != 6 || half.Filled != 0 {
		t.Errorf("From(10) = %+v", half)
	}
	if s.Len() != 3 || s.Width() != 10 {
		t.Errorf("Len/Width = %d/%d", s.Len(), s.Width())
	}
}

func TestNewSeriesAt(t *testing.T) {
	// Anchor mid-bucket: origin snaps down to the bucket boundary, just
	// as the first Add at that time would have.
	s, err := NewSeriesAt(10, 37)
	if err != nil {
		t.Fatal(err)
	}
	if s.Origin() != 30 {
		t.Errorf("Origin = %d, want 30", s.Origin())
	}
	byAdd, _ := NewSeries(10)
	byAdd.Add(37, cost.Counters{Requested: 1})
	s.Add(37, cost.Counters{Requested: 1})
	if s.Origin() != byAdd.Origin() || s.Len() != byAdd.Len() {
		t.Errorf("anchored series diverged from first-Add anchoring: origin %d/%d len %d/%d",
			s.Origin(), byAdd.Origin(), s.Len(), byAdd.Len())
	}
	if _, err := NewSeriesAt(0, 5); err == nil {
		t.Error("zero width should fail")
	}
}

func TestMerge(t *testing.T) {
	mk := func(anchor int64) *Series {
		s, err := NewSeriesAt(10, anchor)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(0), mk(0)
	a.Add(5, cost.Counters{Requested: 100})
	b.Add(5, cost.Counters{Requested: 11})
	b.Add(25, cost.Counters{Filled: 7}) // extends beyond a's buckets
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got := a.Buckets()
	if len(got) != 3 {
		t.Fatalf("merged buckets = %d, want 3", len(got))
	}
	if got[0].Counters.Requested != 111 {
		t.Errorf("bucket 0 Requested = %d, want 111", got[0].Counters.Requested)
	}
	if got[1].Counters != (cost.Counters{}) {
		t.Errorf("interior bucket not empty: %+v", got[1].Counters)
	}
	if got[2].Counters.Filled != 7 {
		t.Errorf("bucket 2 Filled = %d, want 7", got[2].Counters.Filled)
	}

	// Width mismatch errors.
	w, _ := NewSeries(20)
	w.Add(0, cost.Counters{Requested: 1})
	if err := a.Merge(w); err == nil {
		t.Error("width mismatch should fail")
	}
	// Origin mismatch errors.
	c := mk(40)
	c.Add(45, cost.Counters{Requested: 1})
	if err := a.Merge(c); err == nil {
		t.Error("origin mismatch should fail")
	}
	// Unanchored or nil other is a no-op.
	empty, _ := NewSeries(10)
	before := a.Buckets()
	if err := a.Merge(empty); err != nil {
		t.Errorf("unanchored merge: %v", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge: %v", err)
	}
	after := a.Buckets()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("no-op merge changed bucket %d", i)
		}
	}
	// Merging into an unanchored receiver adopts the other's origin.
	r, _ := NewSeries(10)
	if err := r.Merge(b); err != nil {
		t.Fatal(err)
	}
	if r.Origin() != b.Origin() || r.Len() != b.Len() {
		t.Errorf("unanchored receiver: origin %d len %d", r.Origin(), r.Len())
	}
}

func TestPeakIngressRatio(t *testing.T) {
	s, _ := NewSeries(3600)
	// Two days; hour 5 is the busiest, hours 7 and 9 tie for second
	// and the earlier wins.
	for day := int64(0); day < 2; day++ {
		for h := int64(0); h < 24; h++ {
			c := cost.Counters{Requested: 10, Filled: 1}
			switch h {
			case 5:
				c = cost.Counters{Requested: 100, Filled: 50}
			case 7:
				c = cost.Counters{Requested: 40, Filled: 40}
			case 9:
				c = cost.Counters{Requested: 40, Filled: 0}
			}
			s.Add(day*86400+h*3600+17, c)
		}
	}
	if got, want := s.PeakIngressRatio(1), 0.5; got != want {
		t.Errorf("busiest hour: %v, want %v", got, want)
	}
	if got, want := s.PeakIngressRatio(2), 90.0/140; got != want {
		t.Errorf("two busiest hours: %v, want %v (ties go to the earlier hour)", got, want)
	}
}
