package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"time"

	"dvod"
	"dvod/internal/workload"
)

// mix is a workload's traffic: which homes viewers sit behind, which titles
// they pick and how popular each is.
type mix struct {
	homes []dvod.NodeID
	// titles is in popularity-rank order, sampled Zipf(theta).
	titles []string
	theta  float64
	// pairs makes every arrival two viewers due at once, on one home half
	// of the time and on two different homes otherwise (a flash crowd).
	pairs bool
}

// watch names one session's inputs: the viewer's home and the title.
type watch struct {
	Home  dvod.NodeID
	Title string
}

// drawer samples watches from a mix with its own seeded source.
type drawer struct {
	m    mix
	rng  *rand.Rand
	zipf *workload.ZipfTitles
}

func (m mix) drawer(seed int64) (*drawer, error) {
	rng := rand.New(rand.NewSource(seed))
	z, err := workload.NewZipfTitles(m.titles, m.theta, rng)
	if err != nil {
		return nil, err
	}
	return &drawer{m: m, rng: rng, zipf: z}, nil
}

// one draws a single watch.
func (d *drawer) one() watch {
	return watch{Home: d.m.homes[d.rng.Intn(len(d.m.homes))], Title: d.zipf.Sample()}
}

// event draws one arrival event: one watch, or two under pairs.
func (d *drawer) event() []watch {
	w := d.one()
	if !d.m.pairs {
		return []watch{w}
	}
	second := w
	if len(d.m.homes) > 1 && d.rng.Intn(2) == 1 {
		// Another home: shift by 1..len-1 so it always differs.
		i := indexOf(d.m.homes, w.Home)
		second.Home = d.m.homes[(i+1+d.rng.Intn(len(d.m.homes)-1))%len(d.m.homes)]
	}
	return []watch{w, second}
}

func indexOf(nodes []dvod.NodeID, n dvod.NodeID) int {
	for i, x := range nodes {
		if x == n {
			return i
		}
	}
	return -1
}

// arrival is one scheduled session of the open-loop phase.
type arrival struct {
	// Due is when the session should start, from the start of the phase.
	Due time.Duration
	watch
}

// buildSchedule draws the open-loop phase's sessions: the first
// round(ratePerSec·dur) events (at least one) of a Poisson process at
// ratePerSec, each event drawn from the mix. Fixing the event count rather
// than the end time keeps every run's sample size the same; the phase lasts
// dur on average. The same seed always gives the same schedule.
func buildSchedule(m mix, ratePerSec float64, dur time.Duration, seed int64) ([]arrival, error) {
	d, err := m.drawer(seed)
	if err != nil {
		return nil, err
	}
	p, err := workload.NewPoisson(ratePerSec, rand.New(rand.NewSource(seed^0x6f70656e))) // "open"
	if err != nil {
		return nil, err
	}
	events := max(1, int(math.Round(ratePerSec*dur.Seconds())))
	out := make([]arrival, 0, events)
	var at time.Duration
	for range events {
		at += p.Next()
		for _, w := range d.event() {
			out = append(out, arrival{Due: at, watch: w})
		}
	}
	return out, nil
}

// scheduleHash fingerprints a schedule, so two runs can be shown to have
// offered identical traffic.
func scheduleHash(s []arrival) string {
	h := sha256.New()
	var b [8]byte
	for _, a := range s {
		binary.LittleEndian.PutUint64(b[:], uint64(a.Due))
		h.Write(b[:])
		h.Write([]byte(a.Home))
		h.Write([]byte{0})
		h.Write([]byte(a.Title))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
