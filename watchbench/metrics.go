package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// rounds is how many open-loop/closed-loop rounds a pass is cut into.
const rounds = 20

// round is one open-loop phase followed by one closed-loop phase.
type round struct {
	sched      []arrival
	open       openResult
	closed     closedResult
	c0, c1, c2 counters // before open, after open, after closed
}

// passResult is a pass's rounds.
type passResult struct {
	rounds     []round
	mem0, mem1 runtime.MemStats
}

func (pr passResult) openSessions() []*session {
	var out []*session
	for _, r := range pr.rounds {
		out = append(out, r.open.sessions...)
	}
	return out
}

func (pr passResult) sessions() []*session {
	var out []*session
	for _, r := range pr.rounds {
		out = append(append(out, r.open.sessions...), r.closed.sessions...)
	}
	return out
}

// counterDelta sums a counter's movement over every round's phase: open
// (c0→c1) or whole (c0→c2).
func (pr passResult) counterDelta(name string, openOnly bool) float64 {
	var v float64
	for _, r := range pr.rounds {
		end := r.c2
		if openOnly {
			end = r.c1
		}
		v += delta(r.c0, end, name)
	}
	return v
}

// pass runs the rounds for seconds in total. Each round draws its schedule
// and closed-loop titles from its own seed derived from seed.
func (d *runner) pass(w workloadDef, m mix, seconds float64, seed int64) (passResult, error) {
	var pr passResult
	per := time.Duration(seconds / rounds * float64(time.Second))
	openDur := time.Duration(float64(per) * w.openShare)
	runtime.ReadMemStats(&pr.mem0)
	for i := range rounds {
		rs := seed*rounds + int64(i)
		sched, err := buildSchedule(m, w.openRate, openDur, rs)
		if err != nil {
			return pr, err
		}
		// Collect the previous closed loop's garbage outside the timed
		// phases, so each open loop pays only for its own.
		runtime.GC()
		r := round{sched: sched, c0: readCounters(d.f)}
		r.open = d.openLoop(sched, openDur)
		r.c1 = readCounters(d.f)
		if r.closed, err = d.closedLoop(m, per-openDur, rs); err != nil {
			return pr, err
		}
		r.c2 = readCounters(d.f)
		pr.rounds = append(pr.rounds, r)
	}
	runtime.ReadMemStats(&pr.mem1)
	return pr, nil
}

// tally counts sessions by outcome.
type tally struct {
	attempted, failed, unverified int
	kinds                         map[string]int
	// example keeps the first error of each kind, for the guard line.
	example        map[string]string
	stall, playout time.Duration
}

func tallySessions(ss []*session) tally {
	t := tally{kinds: map[string]int{}, example: map[string]string{}}
	for _, s := range ss {
		t.attempted++
		if k := failKind(s); k != "" {
			t.failed++
			t.kinds[k]++
			if _, ok := t.example[k]; !ok {
				t.example[k] = fmt.Sprintf("%s@%s: %v", s.Title, s.Home, s.err)
			}
			if k == "unverified" {
				t.unverified++
			}
			continue
		}
		t.stall += s.stats.StallTime
		rate := s.stats.DeliveredMbps
		if rate <= 0 {
			rate = bitrateMbps
		}
		t.playout += playout(s.stats.BytesReceived, rate)
	}
	return t
}

func completed(ss []*session) []*session {
	var out []*session
	for _, s := range ss {
		if failKind(s) == "" {
			out = append(out, s)
		}
	}
	return out
}

func durations(ss []*session, f func(*session) time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(f(s))
	}
	return out
}

// ungated computes the untraced pass's figures that are measured but not
// gated: the startup and session tails and the closed-loop goodput. Between
// sets of seeds they spread by more than any bound allows (see README.md),
// so the untraced run prints them on an informational line and the traced
// run reports them as per-layer metrics.
func ungated(pr passResult, tail int) (map[string]metric, error) {
	out := map[string]metric{}
	sp90, err := groupP90(pr, (*session).startup, tail)
	if err != nil {
		return nil, fmt.Errorf("startup_ms: %w", err)
	}
	out["startup_ms.p90"] = metric{sp90, "ms"}
	p90, err := groupP90(pr, (*session).total, tail)
	if err != nil {
		return nil, fmt.Errorf("session_ms: %w", err)
	}
	out["session_ms.p90"] = metric{p90, "ms"}
	var goodput []float64
	for i, r := range pr.rounds {
		mb, err := closedMB(r, i)
		if err != nil {
			return nil, err
		}
		goodput = append(goodput, mb/r.closed.wall.Seconds())
	}
	out["goodput_MBps"] = metric{midMean(goodput), "MB/s"}
	return out, nil
}

// closedMB is the verified megabytes round i's closed loop delivered.
func closedMB(r round, i int) (float64, error) {
	var bytes int64
	for _, s := range completed(r.closed.sessions) {
		bytes += s.stats.BytesReceived
	}
	if bytes == 0 {
		return 0, fmt.Errorf("round %d: no closed-loop session completed", i)
	}
	return float64(bytes) / 1e6, nil
}

// endToEnd computes the gated viewer-facing metrics of an untraced pass. The
// p50s and CPU cost are mid-means over rounds of each round's value, so a
// few rounds slowed by interference from outside the process do not move
// them. Counts are per completed open-loop watch over the whole pass.
func endToEnd(pr passResult, setup time.Duration) (map[string]metric, error) {
	out := map[string]metric{}
	open := completed(pr.openSessions())
	out["startup_ms.p50"] = metric{openP50(pr, (*session).startup), "ms"}
	out["session_ms.p50"] = metric{openP50(pr, (*session).total), "ms"}
	var cpu []float64
	for i, r := range pr.rounds {
		mb, err := closedMB(r, i)
		if err != nil {
			return nil, err
		}
		cpu = append(cpu, ms(r.closed.cpu)/mb)
	}
	out["cpu_ms_per_MB"] = metric{midMean(cpu), "ms/MB"}
	n := float64(len(open))
	out["disk_reads_per_watch"] = metric{pr.counterDelta("server.disk_reads", true) / n, "count"}
	out["backbone_clusters_per_watch"] = metric{
		(pr.counterDelta("server.remote_clusters", true) + pr.counterDelta("server.relay_clusters", true)) / n, "count"}
	out["max_rss_MB"] = metric{float64(maxRSS()) / 1e6, "MB"}
	out["setup_s"] = metric{setup.Seconds(), "s"}
	return out, nil
}

// p90Groups is the most runs of consecutive rounds a p90 is taken over.
const p90Groups = 5

// groupP90 cuts the rounds into runs of consecutive rounds, as many as give
// each p90 the samples it needs (at most p90Groups), pools each run's
// completed open-loop sessions, and returns the mid-mean of the runs' p90s.
func groupP90(pr passResult, f func(*session) time.Duration, tail int) (float64, error) {
	var p90s []float64
	n := len(pr.rounds)
	groups := min(p90Groups, max(1, len(completed(pr.openSessions()))/(10*max(tail, 1))))
	for g := range groups {
		var ss []*session
		for _, r := range pr.rounds[g*n/groups : (g+1)*n/groups] {
			ss = append(ss, completed(r.open.sessions)...)
		}
		p90, err := percentile(durations(ss, f), 0.9, tail)
		if err != nil {
			return 0, err
		}
		p90s = append(p90s, p90)
	}
	return midMean(p90s), nil
}

// openP50 is the mid-mean over rounds of each round's open-loop p50.
func openP50(pr passResult, f func(*session) time.Duration) float64 {
	var v []float64
	for _, r := range pr.rounds {
		v = append(v, median(durations(completed(r.open.sessions), f)))
	}
	return midMean(v)
}

// perLayer computes the traced pass's layer metrics, with untraced the
// same-length untraced pass the tracing overhead is measured against.
func perLayer(pr, untraced passResult, spans []span, pt probeTimes, f *fleet, tail int) (map[string]metric, error) {
	done := completed(pr.sessions())
	n := float64(len(done))
	if n == 0 {
		return nil, fmt.Errorf("no traced session completed")
	}
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	pct := func(name string, samples []float64, unit string) error {
		p90, err := percentile(samples, 0.9, tail)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		put(name+".p50", median(samples), unit)
		put(name+".p90", p90, unit)
		return nil
	}
	d := func(name string) float64 { return pr.counterDelta(name, false) }

	// client
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], ms(s.dur()))
	}
	put("client.dial_ms", median(byName["client.dial"]), "ms")
	put("client.reply_ms", median(byName["client.reply"]), "ms")
	var gaps []float64
	var switches, rtts, patches float64
	for _, s := range done {
		gaps = append(gaps, s.gaps...)
		switches += float64(s.stats.Switches)
		rtts += float64(s.stats.StartupRTTs)
		patches += float64(s.stats.PatchClusters)
	}
	if err := pct("client.gap_ms", gaps, "ms"); err != nil {
		return nil, err
	}
	// core + routing
	if err := pct("core.plan_us", pt.plan, "us"); err != nil {
		return nil, err
	}
	put("switches_per_watch", switches/n, "count")
	put("server.plan_headroom_fallbacks", d("server.plan_headroom_fallbacks"), "count")
	// admission + ledger
	if err := pct("admission.admit_us", pt.admit, "us"); err != nil {
		return nil, err
	}
	for _, k := range []string{"admitted", "rejected", "queued", "degraded"} {
		put("admission."+k, d("admission."+k+"."), "count")
	}
	put("admission.migrations", d("admission.migrations"), "count")
	put("ledger.gossip_rounds", d("ledger.gossip_rounds"), "count")
	// db + snmp
	var links []float64
	for _, t := range f.linkTimes {
		links = append(links, us(t))
	}
	put("db.link_update_us", median(links), "us")
	// cache (DMA)
	put("cache.hit_ratio", d("server.dma_hits")/n, "ratio")
	put("server.dma_admissions", d("server.dma_admissions"), "count")
	// striping + disk
	put("server.disk_reads", d("server.disk_reads"), "count")
	put("server.disk_bytes", d("server.disk_bytes"), "count")
	put("disk.read_us_per_cluster", median(pt.read), "us")
	// prefix
	put("server.prefix_reads", d("server.prefix_reads"), "count")
	last := pr.rounds[len(pr.rounds)-1].c2
	put("prefix.pinned_clusters", last.g["prefix.pinned_clusters"], "count")
	put("prefix.resolve_ms", ms(f.resolveTime), "ms")
	put("startup_rtts_per_watch", rtts/n, "count")
	// merge
	put("merge.share", d("merge.sessions_merged")/n, "ratio")
	put("merge.disk_reads_saved", d("merge.disk_reads_saved"), "count")
	put("merge.evictions", d("merge.evictions"), "count")
	put("merge.cohorts_total", d("merge.cohorts_total"), "count")
	put("patch_clusters_per_watch", patches/n, "count")
	// server: fetch, defense, relay
	put("server.remote_clusters", d("server.remote_clusters"), "count")
	put("server.fetch_retries", d("server.fetch_retries"), "count")
	put("client.hedges_launched", d("client.hedges_launched"), "count")
	put("hedge.win_ratio", ratio(d("client.hedges_won"), d("client.hedges_launched")), "ratio")
	put("server.relay_upstreams", d("server.relay_upstreams"), "count")
	put("server.relay_watchers", d("server.relay_watchers"), "count")
	put("server.relay_fallbacks", d("server.relay_fallbacks"), "count")
	// transport
	put("server.kernel_sends", d("server.kernel_sends"), "count")
	put("server.fallback_sends", d("server.fallback_sends"), "count")
	put("server.frames_out", d("server.frames_out"), "count")
	put("transport.pool_hit_ratio",
		ratio(d("transport.pool_hits"), d("transport.pool_hits")+d("transport.pool_misses")), "ratio")
	put("transport.send_us_per_cluster", median(pt.send), "us")
	// Go runtime
	put("alloc_MB_per_watch", float64(pr.mem1.TotalAlloc-pr.mem0.TotalAlloc)/1e6/n, "MB")
	put("gc.pause_ms_total", float64(pr.mem1.PauseTotalNs-pr.mem0.PauseTotalNs)/1e6, "ms")
	// guards, generator, tracing overhead
	t := tallySessions(pr.sessions())
	put("stall_ratio", stallRatio(t.stall, t.playout), "ratio")
	put("fail_ratio", failRatio(t.failed, t.attempted), "ratio")
	g := generator(pr)
	put("generator.lateness_ms.p50", g.lateP50, "ms")
	put("generator.lateness_ms.max", g.lateMax, "ms")
	put("generator.backlog", float64(g.backlog), "count")
	ug, err := ungated(untraced, tail)
	if err != nil {
		return nil, err
	}
	for name, m := range ug {
		out[name] = m
	}
	put("trace.overhead.startup_ms.p50",
		openP50(pr, (*session).startup)-openP50(untraced, (*session).startup), "ms")
	put("trace.overhead.session_ms.p50",
		openP50(pr, (*session).total)-openP50(untraced, (*session).total), "ms")
	return out, nil
}

// generatorStats is how honestly the open loop offered its schedule:
// lateness is when a session actually started minus when it was due (slot
// waits included), dispatchLate the generator's own worst lateness, and
// backlog the most due sessions any round left unstarted when its time ran
// out.
type generatorStats struct {
	sessions         int
	hash             string
	lateP50, lateMax float64
	dispatchLate     float64
	backlog          int
}

func generator(pr passResult) generatorStats {
	var g generatorStats
	var all []arrival
	var late []float64
	for _, r := range pr.rounds {
		all = append(all, r.sched...)
		for _, s := range r.open.sessions {
			l := ms(s.start.Sub(s.due))
			late = append(late, l)
			g.lateMax = math.Max(g.lateMax, l)
		}
		g.dispatchLate = math.Max(g.dispatchLate, ms(r.open.dispatchLate))
		g.backlog = max(g.backlog, r.open.backlog)
	}
	g.sessions, g.hash, g.lateP50 = len(all), scheduleHash(all), median(late)
	return g
}

func generatorLine(pr passResult) string {
	g := generator(pr)
	return fmt.Sprintf(`{"sessions": %d, "schedule_sha256": %q, "lateness_ms_p50": %.4f, "lateness_ms_max": %.4f, "dispatch_late_ms_max": %.4f, "backlog_at_end": %d}`,
		g.sessions, g.hash, g.lateP50, g.lateMax, g.dispatchLate, g.backlog)
}

// roundsLine reports each round's open-loop p50s and closed-loop goodput,
// so a reader can see whether one round ran slow.
func roundsLine(pr passResult) string {
	var parts []string
	for _, r := range pr.rounds {
		open := completed(r.open.sessions)
		var bytes int64
		for _, s := range completed(r.closed.sessions) {
			bytes += s.stats.BytesReceived
		}
		parts = append(parts, fmt.Sprintf(`{"startup_ms_p50": %.4f, "session_ms_p50": %.4f, "goodput_MBps": %.2f}`,
			median(durations(open, (*session).startup)), median(durations(open, (*session).total)),
			float64(bytes)/1e6/r.closed.wall.Seconds()))
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// guardLine reports the viewer-facing guards: failure and stall ratios.
func guardLine(t tally) string {
	kinds := make([]string, 0, len(t.kinds))
	for k, v := range t.kinds {
		kinds = append(kinds, fmt.Sprintf("%q: {\"count\": %d, \"first\": %q}", k, v, t.example[k]))
	}
	sort.Strings(kinds)
	return fmt.Sprintf(`{"attempted": %d, "failed": %d, "fail_ratio": %g, "stall_ratio": %g, "failures": {%s}}`,
		t.attempted, t.failed, failRatio(t.failed, t.attempted), stallRatio(t.stall, t.playout), strings.Join(kinds, ", "))
}

// metricLine prints metrics as a JSON object of name → value, in name order.
func metricLine(m map[string]metric) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%q: %.4f", n, m[n].Value)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
