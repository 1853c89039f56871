package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one completed operation as the generator saw it.
type sample struct {
	done time.Duration // completion, since the phase began
	ttfb time.Duration // send (closed loop) or due time (open loop) -> first body byte
	lat  time.Duration // same -> last body byte
	late time.Duration // open loop: how long after it could have gone out the request was sent
	// served and redirected are the request bytes answered by a 2xx
	// body and by a 302 (replay: by a serve and a redirect decision).
	served, redirected int64
	failed             bool
}

// opFunc performs operation i on worker w and times it from its own
// send. Workers call it concurrently with distinct w.
type opFunc func(w int, i int64) sample

// phase is the outcome of one measured loop.
type phase struct {
	window  time.Duration
	samples []sample // in completion order per worker, then merged by done
}

// runClosed keeps every worker busy for window: a worker sends its next
// operation as soon as the previous one completed.
func runClosed(workers int, window time.Duration, next *atomic.Int64, do opFunc) phase {
	per := make([][]sample, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < window {
				s := do(w, next.Add(1)-1)
				s.done = time.Since(start)
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	return phase{window: window, samples: mergeSamples(per)}
}

// poissonSchedule returns the due times of a Poisson arrival process of
// the given rate over window, drawn from seed.
func poissonSchedule(rate float64, window time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return due
		}
		due = append(due, d)
	}
}

// runOpen sends operations on a fixed schedule whatever the system's
// speed. Arrivals are served in order by the first free worker; an
// arrival that finds every worker busy waits, and every latency is
// counted from the instant the operation was due, so a stall is charged
// to all the operations it delayed, not only to the one it hit.
func runOpen(workers int, due []time.Duration, window time.Duration, next *atomic.Int64, do opFunc) phase {
	per := make([][]sample, workers)
	var slot atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := slot.Add(1) - 1
				if k >= int64(len(due)) {
					return
				}
				free := time.Since(start)
				if wait := due[k] - free; wait > 0 {
					sleepPrecisely(wait)
				}
				sent := time.Since(start)
				s := do(w, next.Add(1)-1)
				s.done = time.Since(start)
				queued := sent - due[k]
				s.ttfb += queued
				s.lat += queued
				s.late = sent - max(due[k], free)
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	return phase{window: window, samples: mergeSamples(per)}
}

// sleepPrecisely blocks for d in nanosleep(2). time.Sleep on an idle
// process ends in an epoll wait whose timeout the runtime rounds up to
// whole milliseconds, which would make every open-loop send about a
// millisecond late; nanosleep is good to the kernel's timer slack.
func sleepPrecisely(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

func mergeSamples(per [][]sample) []sample {
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	return all
}

// ---------- reductions ----------

func (p phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// rates returns completions per second and served bytes per second,
// each as the median over ten equal slices of the window: one slow
// slice (a GC cycle, a writeback burst) moves a mean but not this.
func (p phase) rates() (ops, bytes float64) {
	n, b := p.sliceRates()
	return median(n), median(b)
}

// rateSlices is how many equal slices of a window rates are taken over.
const rateSlices = 10

// sliceRates returns completions and served bytes per second in each
// slice of the window.
func (p phase) sliceRates() (ops, bytes []float64) {
	ops, bytes = make([]float64, rateSlices), make([]float64, rateSlices)
	for _, s := range p.samples {
		if i := int(s.done * rateSlices / p.window); i < rateSlices {
			ops[i]++
			bytes[i] += float64(s.served)
		}
	}
	per := p.window.Seconds() / rateSlices
	for i := range ops {
		ops[i] /= per
		bytes[i] /= per
	}
	return ops, bytes
}

// servedBytes sums the 2xx bytes of operations completed in the window.
func (p phase) servedBytes() (n int64) {
	for _, s := range p.samples {
		if s.done <= p.window {
			n += s.served
		}
	}
	return n
}

// sortedMs returns one duration field of the good samples in
// milliseconds, ascending. A failed operation has no latency: it is
// reported as +Inf so that it sits beyond every percentile.
func (p phase) sortedMs(field func(sample) time.Duration) []float64 {
	out := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		if s.failed {
			out = append(out, math.Inf(1))
		} else {
			out = append(out, float64(field(s))/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

func fieldTTFB(s sample) time.Duration { return s.ttfb }
func fieldLat(s sample) time.Duration  { return s.lat }
func fieldLate(s sample) time.Duration { return s.late }
