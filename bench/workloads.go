package main

import (
	"bytes"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"videocdn/internal/chunk"
)

// workloads.json is the single record of every workload parameter and
// of the layer -> end-to-end interaction table. BENCHMARK.json may hold
// only a name and a one-line why per workload, so the rest lives here
// and is stamped into each run's output.
//
//go:embed workloads.json
var workloadsJSON []byte

type suite struct {
	MaxConnections int               `json:"max_connections"`
	SeedDefault    int64             `json:"seed_default"`
	Environment    string            `json:"environment"`
	Workloads      []workload        `json:"workloads"`
	Interactions   []json.RawMessage `json:"interactions"`
}

// workload is one traffic mix. kind "http" drives a cdnserver edge;
// kind "replay" drives sim.Replay in the bench process.
type workload struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Why  string `json:"why"`

	ChunkBytes int64   `json:"chunk_bytes"`
	Policy     string  `json:"policy"`
	Alpha      float64 `json:"alpha"`
	DiskChunks int     `json:"disk_chunks"`
	// OpenRateRPS is the fixed arrival rate of the open-loop phase of an
	// http workload's -trace 1 run: a quarter to a half of the seed's
	// closed-loop req_per_s on the 2-core box the baselines come from,
	// the same constant on every commit.
	OpenRateRPS float64 `json:"open_rate_rps"`
	// Connections overrides the generator's connection count,
	// min(nproc, max_connections), when a workload needs another.
	Connections int `json:"connections"`

	// http workloads.
	Videos        int     `json:"videos"`
	VideoChunks   [2]int  `json:"video_chunks"`    // leading chunks of a video that are requested: [min, max], see usedChunks
	VideoMB       int     `json:"video_mb"`        // size of every video (cdnserver -origin-min-mb = -origin-max-mb)
	Zipf          float64 `json:"zipf"`            // popularity exponent over ranks; 0 is uniform
	RangeChunks   int     `json:"range_chunks"`    // chunk-aligned request length
	NewVideoShare float64 `json:"new_video_share"` // requests for IDs never seen before or after
	// DriftRequests, when positive, slides the catalog by one ID every
	// that many requests; WarmupRequests is then the fixed length of
	// the warm-up, and the measured stream continues from there.
	DriftRequests  int64 `json:"drift_requests"`
	WarmupRequests int64 `json:"warmup_requests"`
	StoreMmap      bool  `json:"store_mmap"`
	HotMB          int64 `json:"hot_mb"`
	// Verify is "full" (every body byte) or "edges" (length plus the
	// first and last verifyEdge bytes of every chunk in the body).
	Verify string `json:"verify"`
	// ClockRPS drives Config.Clock of the serial traced pass: trace
	// time in seconds is the request index divided by it, close to the
	// closed-loop rate so the policy sees inter-arrival times like the
	// child's.
	ClockRPS int64 `json:"clock_rps"`
	// TraceRPS fixes the number of requests of the traced pass
	// (TraceRPS x its share of -seconds), so counts repeat exactly.
	TraceRPS int `json:"trace_rps"`

	// replay workloads.
	Profile       string  `json:"profile"`
	ProfileParts  int     `json:"profile_parts"`
	MaxVideoMB    float64 `json:"max_video_mb"` // caps the profile's video sizes when positive
	Days          int     `json:"days"`
	BatchRequests int     `json:"batch_requests"`
	// IterationRequests is the prefix of the trace one iteration of
	// the end-to-end run replays, a multiple of BatchRequests.
	IterationRequests int `json:"iteration_requests"`

	// Smoke overlays toy-size values for -smoke and the tests.
	Smoke json.RawMessage `json:"smoke"`
}

func loadSuite() (*suite, error) {
	var s suite
	dec := json.NewDecoder(bytes.NewReader(workloadsJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &s, nil
}

func (s *suite) find(name string) (workload, error) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// toy returns the workload at smoke size.
func (w workload) toy() (workload, error) {
	if len(w.Smoke) == 0 {
		return w, nil
	}
	dec := json.NewDecoder(bytes.NewReader(w.Smoke))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return w, fmt.Errorf("workload %s: smoke overlay: %w", w.Name, err)
	}
	return w, nil
}

// ---------- seeded request stream ----------

// request is one GET /video byte range, chunk aligned.
type request struct {
	video      chunk.VideoID
	start, end int64
}

func (r request) bytes() int64 { return r.end - r.start + 1 }

// requestGen maps (seed, index) to a request with no state between
// calls, so any connection can draw any index and the stream is the
// same whatever the timing.
type requestGen struct {
	w    workload
	seed uint64
	base chunk.VideoID // first catalog ID
	cdf  []float64     // cumulative popularity over catalog ranks
}

// Catalog IDs are base..base+Videos-1; never-seen IDs are drawn above
// newVideoOffset, one per request index.
const newVideoOffset = 500_000

func newRequestGen(w workload, seed int64) *requestGen {
	g := &requestGen{
		w:    w,
		seed: uint64(seed),
		base: chunk.VideoID(1+mix64(uint64(seed))%4000) * 1_000_000,
		cdf:  make([]float64, w.Videos),
	}
	var sum float64
	for r := range g.cdf {
		sum += math.Pow(float64(r+1), -w.Zipf)
		g.cdf[r] = sum
	}
	for r := range g.cdf {
		g.cdf[r] /= sum
	}
	return g
}

// usedChunks is how many leading chunks of video v the workload ever
// requests. It cycles through VideoChunks by the ID's place in the
// catalog, not by a hash: the footprint and the hot set are then the
// same for every seed, and a seed changes only which IDs the server
// sees and the order requests come in.
func (g *requestGen) usedChunks(v chunk.VideoID) int {
	span := g.w.VideoChunks[1] - g.w.VideoChunks[0] + 1
	return g.w.VideoChunks[0] + int(uint64(v-g.base)%uint64(span))
}

// at returns request i of the stream.
func (g *requestGen) at(i int64) request {
	h := mix64(g.seed ^ mix64(uint64(i)))
	u := float64(h>>11) / (1 << 53)
	var v chunk.VideoID
	if g.w.NewVideoShare > 0 && u < g.w.NewVideoShare {
		v = g.base + newVideoOffset + chunk.VideoID(i%newVideoOffset)
	} else {
		u2 := float64(mix64(h)>>11) / (1 << 53)
		rank := sort.SearchFloat64s(g.cdf, u2)
		v = g.base + chunk.VideoID(rank)
		if d := g.w.DriftRequests; d > 0 {
			// The catalog slides: every d requests a new ID enters at
			// the top rank and every older one moves a rank down, so
			// popularity is born, decays and leaves, as uploads do.
			v = g.base + chunk.VideoID(i/d) + chunk.VideoID(g.w.Videos-1-rank)
		}
	}
	return g.inVideo(v, mix64(h^0xA5A5A5A5))
}

// inVideo picks a RangeChunks-long aligned range of v from hash h.
func (g *requestGen) inVideo(v chunk.VideoID, h uint64) request {
	first := int64(0)
	if slack := g.usedChunks(v) - g.w.RangeChunks; slack > 0 {
		first = int64(h % uint64(slack+1))
	}
	k := g.w.ChunkBytes
	return request{video: v, start: first * k, end: (first+int64(g.w.RangeChunks))*k - 1}
}

// sweep lists requests that together touch every chunk the catalog
// part of the stream can ask for: the warm-up set of a workload whose
// catalog fits the disk.
func (g *requestGen) sweep() []request {
	var out []request
	k := g.w.ChunkBytes
	step := int64(g.w.RangeChunks)
	for r := 0; r < g.w.Videos; r++ {
		v := g.base + chunk.VideoID(r)
		n := int64(g.usedChunks(v))
		for c := int64(0); c < n; c += step {
			// The last range of a video is cut short rather than laid over
			// the one before: two connections never fill the same chunk.
			out = append(out, request{video: v, start: c * k, end: min(c+step, n)*k - 1})
		}
	}
	return out
}

// resident reports whether the whole catalog fits the disk, i.e.
// warm-up ends in a state with no fills and no redirects.
func (g *requestGen) resident() bool {
	return g.w.NewVideoShare == 0 && g.w.DriftRequests == 0 && g.w.Videos*g.w.VideoChunks[1] <= g.w.DiskChunks
}

// ---------- body check ----------

// verifyEdge is the window checked at each end of every chunk when a
// workload's verify mode is "edges".
const verifyEdge = 4096

// chunkBytesEqual is edge.ChunkData with random access: it compares
// body against bytes [off, off+len(body)) of chunk (v, index).
// ChunkData draws one 64-bit word per 8 bytes from a counter, so any
// word is computable on its own and a check costs a fraction of
// generating the chunk; TestChunkBytesEqualMatchesChunkData pins the
// two together.
func chunkBytesEqual(v chunk.VideoID, index uint32, off int64, body []byte) bool {
	const golden = 0x9E3779B97F4A7C15
	s0 := mix64(uint64(v)<<32 ^ uint64(index) + golden) // splitmix64 of the chunk seed
	i := 0
	// Leading bytes up to a word boundary.
	for ; i < len(body) && (off+int64(i))%8 != 0; i++ {
		p := off + int64(i)
		if body[i] != byte(mix64(s0+uint64(p/8+1)*golden)>>(8*(p%8))) {
			return false
		}
	}
	w := uint64((off+int64(i))/8 + 1)
	for ; i+8 <= len(body); i, w = i+8, w+1 {
		if binary.LittleEndian.Uint64(body[i:]) != mix64(s0+w*golden) {
			return false
		}
	}
	for ; i < len(body); i++ {
		p := off + int64(i)
		if body[i] != byte(mix64(s0+uint64(p/8+1)*golden)>>(8*(p%8))) {
			return false
		}
	}
	return true
}

// mix64 is the splitmix64 finalizer edge.ChunkData builds on.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// verifyBody checks a 200/206 body against the deterministic content
// of the requested range.
func verifyBody(w *workload, r request, body []byte) error {
	if int64(len(body)) != r.bytes() {
		return fmt.Errorf("body is %d bytes, want %d", len(body), r.bytes())
	}
	k := w.ChunkBytes
	for pos := r.start; pos <= r.end; {
		c := pos / k
		off := pos - c*k
		n := k - off
		if pos+n > r.end+1 {
			n = r.end + 1 - pos
		}
		part := body[pos-r.start : pos-r.start+n]
		ok := true
		if w.Verify == "full" || n <= 2*verifyEdge {
			ok = chunkBytesEqual(r.video, uint32(c), off, part)
		} else {
			ok = chunkBytesEqual(r.video, uint32(c), off, part[:verifyEdge]) &&
				chunkBytesEqual(r.video, uint32(c), off+n-verifyEdge, part[n-verifyEdge:])
		}
		if !ok {
			return fmt.Errorf("video %d chunk %d differs from edge.ChunkData", r.video, c)
		}
		pos += n
	}
	return nil
}
