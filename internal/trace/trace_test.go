package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"videocdn/internal/chunk"
)

func sampleRequests() []Request {
	return []Request{
		{Time: 0, Video: 1, Start: 0, End: 1024},
		{Time: 5, Video: 2, Start: 100, End: 100},
		{Time: 5, Video: 1, Start: 2048, End: 1 << 20},
		{Time: 3600, Video: 99999, Start: 0, End: 12345678},
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(NewTextWriter(&buf), sampleRequests()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleRequests()) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, sampleRequests())
	}
}

func TestTextReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n10 7 0 99\n   \n# another\n20 8 5 10\n"
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Request{{10, 7, 0, 99}, {20, 8, 5, 10}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTextReaderErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"too few fields", "10 7 0\n"},
		{"too many fields", "10 7 0 99 4\n"},
		{"non-numeric", "ten 7 0 99\n"},
		{"negative video", "10 -7 0 99\n"},
		{"bad range", "10 7 99 0\n"},
		{"negative time", "-10 7 0 99\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadText(strings.NewReader(c.in)); err == nil {
				t.Errorf("input %q should fail", c.in)
			}
		})
	}
}

func TestWriterValidates(t *testing.T) {
	bad := Request{Time: -1, Video: 1, Start: 0, End: 1}
	if err := NewTextWriter(io.Discard).Write(bad); err == nil {
		t.Error("text writer should reject invalid request")
	}
}

// Property: the text format round-trips arbitrary sorted request
// sequences.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		reqs := make([]Request, 0, n)
		tm := int64(0)
		for i := 0; i < int(n); i++ {
			tm += rng.Int63n(1000)
			start := rng.Int63n(1 << 30)
			reqs = append(reqs, Request{
				Time:  tm,
				Video: chunk.VideoID(rng.Int63n(1 << 40)),
				Start: start,
				End:   start + rng.Int63n(1<<28),
			})
		}
		var buf bytes.Buffer
		if err := WriteAll(NewTextWriter(&buf), reqs); err != nil {
			return false
		}
		got, err := ReadText(&buf)
		if err != nil || len(got) != len(reqs) {
			return false
		}
		for i := range got {
			if got[i] != reqs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRequestHelpers(t *testing.T) {
	r := Request{Time: 1, Video: 3, Start: 0, End: (4 << 20) - 1} // 4 MB
	if r.Bytes() != 4<<20 {
		t.Errorf("Bytes = %d", r.Bytes())
	}
	c0, c1 := r.ChunkRange(chunk.DefaultSize)
	if c0 != 0 || c1 != 1 {
		t.Errorf("ChunkRange = [%d,%d], want [0,1]", c0, c1)
	}
	ids := r.Chunks(chunk.DefaultSize)
	if len(ids) != 2 || ids[0] != (chunk.ID{Video: 3, Index: 0}) || ids[1] != (chunk.ID{Video: 3, Index: 1}) {
		t.Errorf("Chunks = %v", ids)
	}
}

func TestWindow(t *testing.T) {
	reqs := sampleRequests()
	got := Window(reqs, 5, 3600)
	if len(got) != 2 || got[0].Video != 2 || got[1].Video != 1 {
		t.Errorf("Window = %v", got)
	}
}

func TestFilterVideos(t *testing.T) {
	got := FilterVideos(sampleRequests(), map[chunk.VideoID]bool{1: true})
	if len(got) != 2 {
		t.Errorf("FilterVideos kept %d, want 2", len(got))
	}
	for _, r := range got {
		if r.Video != 1 {
			t.Errorf("kept wrong video %d", r.Video)
		}
	}
}

func TestCapSize(t *testing.T) {
	reqs := []Request{
		{Time: 0, Video: 1, Start: 0, End: 100},
		{Time: 1, Video: 1, Start: 50, End: 500},
		{Time: 2, Video: 1, Start: 200, End: 300}, // starts beyond cap
	}
	got := CapSize(reqs, 200)
	if len(got) != 2 {
		t.Fatalf("CapSize kept %d, want 2", len(got))
	}
	if got[0].End != 100 || got[1].End != 199 {
		t.Errorf("CapSize ends = %d,%d", got[0].End, got[1].End)
	}
}

func TestHitCount(t *testing.T) {
	m := HitCount(sampleRequests())
	if m[1] != 2 || m[2] != 1 || m[99999] != 1 {
		t.Errorf("HitCount = %v", m)
	}
}

func TestUniqueChunks(t *testing.T) {
	const k = 1024
	reqs := []Request{
		{Time: 0, Video: 1, Start: 0, End: 2047},    // chunks 0,1
		{Time: 1, Video: 1, Start: 1024, End: 3071}, // chunks 1,2
		{Time: 2, Video: 2, Start: 0, End: 0},       // chunk 0 of video 2
	}
	if got := UniqueChunks(reqs, k); got != 4 {
		t.Errorf("UniqueChunks = %d, want 4", got)
	}
}

func TestSampleUniformByRank(t *testing.T) {
	// 10 videos with hits 10,9,...,1: request i*(i) times.
	var reqs []Request
	tm := int64(0)
	for v := 1; v <= 10; v++ {
		for i := 0; i < 11-v; i++ {
			reqs = append(reqs, Request{Time: tm, Video: chunk.VideoID(v), Start: 0, End: 1})
			tm++
		}
	}
	got := SampleUniformByRank(reqs, 3)
	hits := HitCount(got)
	if len(hits) != 3 {
		t.Fatalf("kept %d videos, want 3", len(hits))
	}
	// Must include the top-ranked video (rank 0 is always picked).
	if _, ok := hits[1]; !ok {
		t.Errorf("sample should include the most popular video, got %v", hits)
	}
}

func TestSampleUniformByRankSmall(t *testing.T) {
	reqs := sampleRequests()
	if got := SampleUniformByRank(reqs, 100); len(got) != len(reqs) {
		t.Errorf("sampling more videos than exist should keep everything")
	}
	if got := SampleUniformByRank(reqs, 0); got != nil {
		t.Errorf("n=0 should return nil")
	}
}

func TestTruncate(t *testing.T) {
	reqs := sampleRequests()
	if got := Truncate(reqs, 2); len(got) != 2 {
		t.Errorf("Truncate = %d requests", len(got))
	}
	if got := Truncate(reqs, 100); len(got) != len(reqs) {
		t.Errorf("Truncate beyond length should be identity")
	}
}

func TestMerge(t *testing.T) {
	a := []Request{{Time: 1, Video: 1, Start: 0, End: 1}, {Time: 5, Video: 1, Start: 0, End: 1}}
	b := []Request{{Time: 2, Video: 2, Start: 0, End: 1}, {Time: 5, Video: 2, Start: 0, End: 1}}
	c := []Request{{Time: 0, Video: 3, Start: 0, End: 1}}
	got := Merge(a, b, c)
	if len(got) != 5 {
		t.Fatalf("merged %d requests", len(got))
	}
	last := int64(-1)
	for i, r := range got {
		if r.Time < last {
			t.Fatalf("merge out of order at %d", i)
		}
		last = r.Time
	}
	// Stability: at t=5 input order (a before b) is preserved.
	if got[3].Video != 1 || got[4].Video != 2 {
		t.Errorf("tie order not stable: %v", got[3:])
	}
	if got[0].Video != 3 {
		t.Errorf("earliest request should come first, got video %d", got[0].Video)
	}
	if out := Merge(); len(out) != 0 {
		t.Error("empty merge should be empty")
	}
}

func TestMergeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() []Request {
			var rs []Request
			tm := int64(0)
			for i := 0; i < rng.Intn(20); i++ {
				tm += rng.Int63n(5)
				rs = append(rs, Request{Time: tm, Video: chunk.VideoID(rng.Intn(5)), Start: 0, End: 1})
			}
			return rs
		}
		a, b, c := mk(), mk(), mk()
		got := Merge(a, b, c)
		if len(got) != len(a)+len(b)+len(c) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Time < got[i-1].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// mergeLinearScan is Merge as it was first written: every step scans
// every input's cursor for the earliest head. It is the reference that
// TestMergeMatchesLinearScan holds Merge to.
func mergeLinearScan(traces ...[]Request) []Request {
	total := 0
	for _, t := range traces {
		total += len(t)
	}
	out := make([]Request, 0, total)
	idx := make([]int, len(traces))
	for len(out) < total {
		best := -1
		var bestTime int64
		for i, t := range traces {
			if idx[i] >= len(t) {
				continue
			}
			if best < 0 || t[idx[i]].Time < bestTime {
				best = i
				bestTime = t[idx[i]].Time
			}
		}
		out = append(out, traces[best][idx[best]])
		idx[best]++
	}
	return out
}

// TestMergeMatchesLinearScan holds Merge, and its split path at 1, 2, 3
// and 8 pieces, to mergeLinearScan: on random inputs with many tied
// times, empty inputs and requests at math.MaxInt64, and on inputs
// shaped against the cuts.
func TestMergeMatchesLinearScan(t *testing.T) {
	check := func(name string, traces [][]Request) {
		t.Helper()
		want := mergeLinearScan(traces...)
		if got := Merge(traces...); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %d inputs: Merge differs from the linear scan\ngot  %v\nwant %v", name, len(traces), got, want)
		}
		for _, pieces := range []int{1, 2, 3, 8} {
			got := make([]Request, len(want))
			mergeSplit(got, pieces, traces)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d inputs: %d-piece merge differs from the linear scan\ngot  %v\nwant %v", name, len(traces), pieces, got, want)
			}
		}
	}
	// input returns n requests of input i whose times are time(j); Video
	// and Start name the request's input and place.
	input := func(i, n int, time func(j int) int64) []Request {
		t := make([]Request, n)
		for j := range t {
			t[j] = Request{Time: time(j), Video: chunk.VideoID(i), Start: int64(j), End: int64(j)}
		}
		return t
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		k := trial % 10
		traces := make([][]Request, k)
		for i := range traces {
			if rng.Intn(4) == 0 {
				continue // an empty input
			}
			n := rng.Intn(30)
			tm := int64(rng.Intn(3))
			traces[i] = input(i, n, func(int) int64 {
				tm += int64(rng.Intn(2)) // about half the steps tie
				return tm
			})
			if rng.Intn(3) == 0 {
				traces[i] = append(traces[i], Request{Time: math.MaxInt64, Video: chunk.VideoID(i), Start: int64(n), End: int64(n)})
			}
		}
		check(fmt.Sprintf("trial %d", trial), traces)
	}

	// Above splitMergeMin, where Merge itself splits: eight inputs of
	// random steps with ties, one of them empty.
	big := make([][]Request, 8)
	for i := range big[1:] {
		tm := int64(0)
		big[i+1] = input(i+1, splitMergeMin/4, func(int) int64 {
			tm += int64(rng.Intn(3))
			return tm
		})
	}
	check("above splitMergeMin", big)

	// Nine inputs in runs of 100 requests at one time, so every cut
	// time is shared by many requests of every input.
	shared := make([][]Request, 9)
	for i := range shared {
		shared[i] = input(i, 1000+i, func(j int) int64 { return int64(j / 100) })
	}
	check("cut times shared", shared)

	// Inputs wholly before, after and between the cuts of the longest,
	// with empty inputs among them.
	check("inputs beside the cuts", [][]Request{
		nil,
		input(1, 50, func(j int) int64 { return int64(j) }),
		input(2, 400, func(j int) int64 { return 100 + int64(j) }),
		{},
		input(4, 50, func(j int) int64 { return 1000 + int64(j) }),
		input(5, 3, func(j int) int64 { return 250 }),
	})

	// Every request at one time.
	same := make([][]Request, 5)
	for i := range same {
		same[i] = input(i, 200, func(int) int64 { return 7 })
	}
	check("one time", same)
}

func TestOffsetVideos(t *testing.T) {
	reqs := []Request{{Time: 0, Video: 1, Start: 0, End: 1}, {Time: 1, Video: 2, Start: 0, End: 1}}
	got := OffsetVideos(reqs, 100)
	if got[0].Video != 101 || got[1].Video != 102 {
		t.Errorf("offsets wrong: %v", got)
	}
	if reqs[0].Video != 1 {
		t.Error("input must not be mutated")
	}
}

func TestReadAllPropagatesError(t *testing.T) {
	if _, err := ReadText(strings.NewReader("bad line here\n")); err == nil {
		t.Error("ReadText should surface parse errors")
	}
	if _, err := ReadText(iotest{}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("ReadText should surface IO errors, got %v", err)
	}
}

type iotest struct{}

func (iotest) Read([]byte) (int, error) { return 0, errors.New("boom") }

// TestTextReaderLineNumbers drives every TextReader failure mode —
// field-count, parse, validation and scanner-level errors — and checks
// each is reported with the exact 1-based line number, and that the
// line cap is honored in both directions.
func TestTextReaderLineNumbers(t *testing.T) {
	over := strings.Repeat("9", maxLineBytes+1) // one line of the cap + 1 bytes
	// The longest accepted line (the cap counts the newline): sixteen
	// times bufio.Scanner's own 64 KiB default, which the reader raises.
	under := "1 " + strings.Repeat("0", maxLineBytes-len("1 1 0 9")-1) + "1 0 9"
	cases := []struct {
		name    string
		input   string
		wantOK  int    // requests read before the error
		wantErr string // substring of the error; "" means clean end of stream
	}{
		{
			name:   "clean",
			input:  "1 1 0 9\n2 2 0 9\n",
			wantOK: 2,
		},
		{
			name:    "wrong field count",
			input:   "1 1 0 9\n\n# note\n2 2 0\n",
			wantOK:  1,
			wantErr: "line 4: want 4 fields, got 3",
		},
		{
			name:    "unparsable field",
			input:   "1 1 0 9\n2 two 0 9\n",
			wantOK:  1,
			wantErr: "line 2 field 2",
		},
		{
			name:    "negative video",
			input:   "1 -7 0 9\n",
			wantErr: "line 1: negative video ID",
		},
		{
			name:    "invalid range",
			input:   "1 1 9 0\n",
			wantErr: "line 1: trace: invalid byte range",
		},
		{
			name:    "line over default-capped limit",
			input:   "1 1 0 9\n" + over + "\n",
			wantOK:  1,
			wantErr: fmt.Sprintf("line 2: line exceeds the %d-byte limit", maxLineBytes),
		},
		{
			name:   "raised limit accepts long line",
			input:  under + "\n",
			wantOK: 1,
		},
		{
			name:    "over-long comment still fails at the cap",
			input:   "# " + over + "\n1 1 0 9\n",
			wantErr: fmt.Sprintf("line 1: line exceeds the %d-byte limit", maxLineBytes),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewTextReader(strings.NewReader(tc.input))
			got := 0
			var req Request
			var err error
			for {
				var ok bool
				ok, err = r.Next(&req)
				if !ok || err != nil {
					break
				}
				got++
			}
			if got != tc.wantOK {
				t.Fatalf("read %d requests before stopping, want %d (err %v)", got, tc.wantOK, err)
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want clean end of stream, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got clean end of stream", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// BenchmarkMerge merges eight time-ordered inputs of 100 000 requests
// each over 30 days, about the shape of the replay-cafe workload's
// eight SplitProfile parts.
func BenchmarkMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	traces := make([][]Request, 8)
	for i := range traces {
		tm := 0.0
		for j := 0; j < 100000; j++ {
			tm += rng.ExpFloat64() * 30 * 86400 / 100000
			traces[i] = append(traces[i], Request{Time: int64(tm), Video: chunk.VideoID(i), Start: 0, End: 1})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeSink = Merge(traces...)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*8*100000), "ns/req")
}

// mergeSink keeps BenchmarkMerge's result live.
var mergeSink []Request
