package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"videocdn/internal/chunk"
	"videocdn/internal/core"
	"videocdn/internal/cost"
	"videocdn/internal/sim"
	"videocdn/internal/trace"
)

// flashVideoID is far outside the generator's ID space.
const flashVideoID chunk.VideoID = 9_000_000

// FlashRow is one algorithm's handling of the flash-crowd video.
type FlashRow struct {
	Algo string
	// RedirectsByWindow counts redirected flash requests in the first
	// 10, 30 and 60 minutes and over the whole event.
	Red10, Red30, Red60, RedTotal int
	// Requests10 etc. are the totals per window.
	Req10, Req30, Req60, ReqTotal int
	// FirstServe is minutes until the first served flash request (-1
	// if never served).
	FirstServe float64
}

// FlashResult evaluates Section 6's responsiveness claim — EWMA IATs
// "responsive to the dynamics of access patterns yet resistant to
// transient access changes" — under a flash crowd: a brand-new video
// suddenly becomes the hottest object on the server.
type FlashResult struct {
	Server string
	Alpha  float64
	Rows   []FlashRow
}

// Flash injects a viral video into the European trace on day
// Days*3/4: its request rate ramps to several requests per minute
// within minutes and decays over ~6 hours. It reports how quickly each
// algorithm starts serving it and how many of its requests were
// redirected meanwhile.
func Flash(sc Scale) (*FlashResult, error) {
	const server = "europe"
	const alpha = 2.0
	base, err := TraceFor(server, sc)
	if err != nil {
		return nil, err
	}
	start := base[0].Time + int64(float64(sc.Days)*0.75)*workloadDay
	flash := flashRequests(start, sc)
	reqs := trace.Merge(base, flash)

	res := &FlashResult{Server: server, Alpha: alpha}
	cfg := core.Config{ChunkSize: sc.ChunkSize, DiskChunks: sc.DiskChunks}
	for _, algo := range OnlineAlgos {
		c, err := newCache(algo, cfg, alpha, reqs)
		if err != nil {
			return nil, err
		}
		row := FlashRow{Algo: algo, FirstServe: -1}
		observe := func(r trace.Request, out core.Outcome) int64 {
			if r.Video != flashVideoID {
				return 0
			}
			mins := float64(r.Time-start) / 60
			served := out.Decision == core.Serve
			if served && row.FirstServe < 0 {
				row.FirstServe = mins
			}
			bump := func(req *int, red *int) {
				*req++
				if !served {
					*red++
				}
			}
			bump(&row.ReqTotal, &row.RedTotal)
			if mins <= 10 {
				bump(&row.Req10, &row.Red10)
			}
			if mins <= 30 {
				bump(&row.Req30, &row.Red30)
			}
			if mins <= 60 {
				bump(&row.Req60, &row.Red60)
			}
			return 0
		}
		if _, err := sim.Replay(c, trace.Slice(reqs), cost.MustModel(alpha), sim.Options{Observe: observe}); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

const workloadDay = 86400

// flashRequests synthesizes the viral video's request burst: Poisson
// arrivals whose rate ramps up over ~5 minutes and decays with a
// 2-hour half-life over 6 hours. Viewers watch a prefix of the ~40
// chunk video.
func flashRequests(start int64, sc Scale) []trace.Request {
	rng := rand.New(rand.NewSource(99))
	size := int64(40) * sc.ChunkSize
	const peakPerMin = 6.0
	var out []trace.Request
	t := float64(start)
	end := float64(start + 6*3600)
	for t < end {
		el := t - float64(start)
		rate := peakPerMin / 60 * (1 - math.Exp(-el/300)) * math.Exp(-el*math.Ln2/7200)
		if rate < 1e-5 {
			t += 60
			continue
		}
		t += rng.ExpFloat64() / rate
		if t >= end {
			break
		}
		frac := rng.ExpFloat64() * 0.5
		if frac > 1 {
			frac = 1
		}
		watched := int64(frac * float64(size))
		if watched < 1 {
			watched = 1
		}
		out = append(out, trace.Request{
			Time: int64(t), Video: flashVideoID, Start: 0, End: watched - 1,
		})
	}
	return out
}

// Print renders the flash-crowd table.
func (r *FlashResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Flash crowd (Section 6 responsiveness): new viral video on %s, alpha=%.2g\n", r.Server, r.Alpha)
	fmt.Fprintf(w, "%-8s %12s | %-22s %-22s %-22s\n",
		"algo", "first serve", "redirects ≤10min", "≤30min", "≤60min")
	for _, row := range r.Rows {
		fs := "never"
		if row.FirstServe >= 0 {
			fs = fmt.Sprintf("%.1f min", row.FirstServe)
		}
		frac := func(red, req int) string {
			if req == 0 {
				return "-"
			}
			return fmt.Sprintf("%d/%d (%.0f%%)", red, req, 100*float64(red)/float64(req))
		}
		fmt.Fprintf(w, "%-8s %12s | %-22s %-22s %-22s\n",
			row.Algo, fs, frac(row.Red10, row.Req10), frac(row.Red30, row.Req30), frac(row.Red60, row.Req60))
	}
	fmt.Fprintln(w, "Online caches must see a video twice before admitting it; the EWMA bootstrap")
	fmt.Fprintln(w, "lets Cafe admit the flash video within minutes. Psychic (offline) admits at")
	fmt.Fprintln(w, "first sight from its future knowledge.")
}
