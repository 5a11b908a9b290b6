package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dvod"
	"dvod/internal/client"
	"dvod/internal/transport"
)

// session is one watch and what the benchmark saw of it.
type session struct {
	watch
	// due is when the session should have started; start is when a slot
	// took it; end is when Watch returned (watch.done or an error).
	due, start, end time.Time
	// stats is the player's report with its per-cluster Records and
	// Sources dropped once summarised, so the sessions a run keeps do not
	// grow the peak memory it measures.
	stats dvod.PlaybackStats
	err   error
	// clusters is how many clusters arrived, first when the first did, and
	// gaps (traced runs only) the inter-arrival times in milliseconds.
	clusters int
	first    time.Time
	gaps     []float64
	// want is the title's size: a completed session delivers exactly it.
	want  int64
	trace int64
}

// summarise keeps what the metrics need from the per-cluster records and
// drops them.
func (s *session) summarise(keepGaps bool) {
	recs := s.stats.Records
	s.clusters = len(recs)
	if len(recs) > 0 {
		s.first = recs[0].ArrivedAt
	}
	if keepGaps {
		for i := 1; i < len(recs); i++ {
			s.gaps = append(s.gaps, ms(recs[i].ArrivedAt.Sub(recs[i-1].ArrivedAt)))
		}
	}
	s.stats.Records, s.stats.Sources = nil, nil
}

// unverified reports a session that delivered a byte the client could not
// verify, or a byte count other than the title's size.
func (s *session) unverified() bool {
	if s.err == nil {
		return !s.stats.Verified || s.stats.BytesReceived != s.want || s.clusters != titleClusters
	}
	// A failed watch with Verified cleared stopped on a corrupt cluster.
	return s.stats.Title != "" && !s.stats.Verified
}

func (s *session) startup() time.Duration { return s.first.Sub(s.due) }
func (s *session) total() time.Duration   { return s.end.Sub(s.due) }

// runner runs sessions against one fleet.
type runner struct {
	f    *fleet
	pool *transport.BufferPool
	tr   *tracer
	// slots is how many sessions may be in flight at once.
	slots int
}

// run performs one watch. With a tracer it records the session's spans:
// the client's dial, the reply to the watch request, the wait for the
// first cluster and the rest of the stream, under a root session span.
func (d *runner) run(s *session) {
	s.want = d.f.titles[s.Title].SizeBytes
	opts := []client.Option{client.WithBufferPool(d.pool)}
	var tap *wireTap
	if d.tr != nil {
		s.trace = d.tr.newID()
		tap = &wireTap{}
		opts = append(opts, client.WithDialer(tap.dial))
	}
	p, err := d.f.svc.Player(s.Home, opts...)
	if err != nil {
		s.err, s.end = err, time.Now()
		return
	}
	s.stats, s.err = p.Watch(s.Title)
	s.end = time.Now()
	s.summarise(d.tr != nil)
	if d.tr != nil {
		d.recordSpans(s, tap)
	}
}

func (d *runner) recordSpans(s *session, tap *wireTap) {
	root := s.trace
	d.tr.record(root, root, 0, "session", s.due, s.end)
	d.tr.add(root, root, "queue", s.due, s.start)
	tap.mu.Lock()
	dialStart, dialEnd, written, replied := tap.dialStart, tap.dialEnd, tap.watchWritten, tap.firstReply
	tap.mu.Unlock()
	if !dialEnd.IsZero() {
		d.tr.add(root, root, "client.dial", dialStart, dialEnd)
	}
	if replied.IsZero() {
		return
	}
	d.tr.add(root, root, "client.reply", written, replied)
	if s.clusters == 0 {
		return
	}
	d.tr.add(root, root, "client.first_cluster", replied, s.first)
	d.tr.add(root, root, "client.stream", s.first, s.end)
}

// wireTap times one session's connection from outside the client: the
// dial, and the gap between the watch request going out and the first
// reply byte coming back. The client writes the hello, reads hello.ok,
// writes the watch and reads watch.ok; the second write-then-read turn is
// the watch.
type wireTap struct {
	mu                 sync.Mutex
	dialStart, dialEnd time.Time
	lastWrite          time.Time
	turns              int
	wrote              bool
	watchWritten       time.Time
	firstReply         time.Time
}

func (t *wireTap) dial(addr string) (*transport.Conn, error) {
	start := time.Now()
	c, err := transport.DialWith(addr, func(rw io.ReadWriteCloser) io.ReadWriteCloser {
		return &tappedStream{rw: rw, t: t}
	})
	t.mu.Lock()
	t.dialStart, t.dialEnd = start, time.Now()
	t.mu.Unlock()
	return c, err
}

type tappedStream struct {
	rw io.ReadWriteCloser
	t  *wireTap
}

func (s *tappedStream) Write(p []byte) (int, error) {
	n, err := s.rw.Write(p)
	s.t.mu.Lock()
	s.t.lastWrite, s.t.wrote = time.Now(), true
	s.t.mu.Unlock()
	return n, err
}

func (s *tappedStream) Read(p []byte) (int, error) {
	n, err := s.rw.Read(p)
	if n > 0 {
		now := time.Now()
		s.t.mu.Lock()
		if s.t.wrote {
			s.t.wrote = false
			s.t.turns++
			if s.t.turns == 2 {
				s.t.watchWritten, s.t.firstReply = s.t.lastWrite, now
			}
		}
		s.t.mu.Unlock()
	}
	return n, err
}

func (s *tappedStream) Close() error { return s.rw.Close() }

// openResult is the open-loop phase's outcome.
type openResult struct {
	sessions []*session
	// backlog is how many due sessions had not started when the phase's
	// duration ran out.
	backlog int
	// dispatchLate is the generator's own worst lateness handing sessions
	// to the slot queue.
	dispatchLate time.Duration
	wall         time.Duration
}

// openLoop offers the schedule on time whatever the fleet does: sessions
// queue for one of the slots, and each is timed from when it was due.
func (d *runner) openLoop(sched []arrival, dur time.Duration) openResult {
	// Sized to the schedule, so the generator never blocks on a slow fleet.
	queue := make(chan *session, len(sched))
	t0 := time.Now().Add(5 * time.Millisecond)
	res := openResult{sessions: make([]*session, len(sched))}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, a := range sched {
			due := t0.Add(a.Due)
			sleepUntil(due)
			if late := time.Since(due); late > res.dispatchLate {
				res.dispatchLate = late
			}
			s := &session{watch: a.watch, due: due}
			res.sessions[i] = s
			queue <- s
		}
		// The backlog is what the slots still owe once the last session fell
		// due, or once the nominal duration passed if that is later.
		time.Sleep(time.Until(t0.Add(dur)))
		res.backlog = len(queue)
		close(queue)
	}()
	for range d.slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range queue {
				s.start = time.Now()
				d.run(s)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	return res
}

// sleepUntil returns at t. The runtime's timers wake a sleeper up to a
// millisecond late, which on its own would add about half a millisecond to
// every startup, so it sleeps to a millisecond short of t and spins the rest.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedResult is the closed-loop phase's outcome.
type closedResult struct {
	sessions []*session
	wall     time.Duration
	cpu      time.Duration
}

// closedLoop runs one player per slot, each starting its next watch as soon
// as the last one returns, until dur has passed.
func (d *runner) closedLoop(m mix, dur time.Duration, seed int64) (closedResult, error) {
	drawers := make([]*drawer, d.slots)
	for i := range drawers {
		dr, err := m.drawer(seed + 7919*int64(i+1))
		if err != nil {
			return closedResult{}, err
		}
		drawers[i] = dr
	}
	var (
		mu  sync.Mutex
		res closedResult
		wg  sync.WaitGroup
	)
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(dur)
	for _, dr := range drawers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				now := time.Now()
				s := &session{watch: dr.one(), due: now, start: now}
				d.run(s)
				mu.Lock()
				res.sessions = append(res.sessions, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	res.cpu = cpuTime() - cpu0
	return res, nil
}

// warmSeed draws the warm-up history. It is the same for every run, so
// every run starts from the same cache state and only the measured traffic
// follows the run's seed.
const warmSeed = 0x7761726d // "warm"

// warm runs n untimed watches, slots at a time, so DMA residency, pools and
// lazy set-up settle before anything is timed. Every one must succeed.
func (d *runner) warm(m mix, n int) error {
	dr, err := m.drawer(warmSeed)
	if err != nil {
		return err
	}
	queue := make(chan *session, n) // sized to the sends
	for range n {
		for _, w := range dr.event() {
			if len(queue) < n {
				queue <- &session{watch: w}
			}
		}
	}
	close(queue)
	var (
		wg    sync.WaitGroup
		first atomic.Pointer[error]
	)
	for range d.slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range queue {
				s.due, s.start = time.Now(), time.Now()
				d.run(s)
				if s.err != nil || s.unverified() {
					err := fmt.Errorf("warm-up watch %s@%s: %v", s.Title, s.Home, s.err)
					first.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if e := first.Load(); e != nil {
		return *e
	}
	return nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS is the process's peak resident memory in bytes.
func maxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // kilobytes on Linux
}

// failKind names why a session failed, for the guard line.
func failKind(s *session) string {
	var rej *client.RejectedError
	switch {
	case s.err == nil && !s.unverified():
		return ""
	case s.unverified():
		return "unverified"
	case errors.As(s.err, &rej):
		return "rejected"
	case errors.Is(s.err, transport.ErrServerBusy):
		return "busy"
	default:
		return "error"
	}
}
