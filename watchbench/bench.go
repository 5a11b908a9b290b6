package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dvod/internal/transport"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir holds the span file, and the run's block files in a directory of
	// their own that is removed when the run ends.
	dir string
	// tail is how many samples must lie beyond a reported percentile.
	tail int
	// info receives the human-readable lines printed before the result.
	info func(format string, args ...any)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchmark runs one workload and returns its result line.
func benchmark(cfg config) (result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	goroutines0 := runtime.NumGoroutine()
	f, setups, resolves, err := setUp(w, work)
	if err != nil {
		return result{}, err
	}
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	f.resolveTime = resolves
	d := &runner{f: f, pool: transport.NewBufferPool(nil), slots: runtime.NumCPU()}
	stopReplay, replayErr := startReplay(w, f)
	if err := d.warm(f.spec.mix, w.warmup); err != nil {
		stopReplay()
		<-replayErr
		return result{}, err
	}
	// Re-solve the prefix knapsack on the popularity the warm-up built, the
	// way a prefix epoch would between busy periods.
	if err := f.svc.PrefixResolve(); err != nil {
		stopReplay()
		<-replayErr
		return result{}, err
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	var main, untraced passResult
	if !cfg.trace {
		main, err = d.pass(w, f.spec.mix, cfg.seconds, cfg.seed)
	} else {
		untraced, err = d.pass(w, f.spec.mix, cfg.seconds/2, cfg.seed)
		if err == nil {
			d.tr = newTracer()
			main, err = d.pass(w, f.spec.mix, cfg.seconds/2, cfg.seed)
		}
	}
	stopReplay()
	if rerr := <-replayErr; err == nil && rerr != nil {
		err = fmt.Errorf("link replay: %w", rerr)
	}
	if err != nil {
		return result{}, err
	}
	if cfg.trace {
		if res.Metrics, err = d.traceLayers(w, cfg, work, main, untraced); err != nil {
			return result{}, err
		}
	}
	// A traced run counts its untraced pass too: every measured session
	// must deliver verified bytes.
	t := tallySessions(append(main.sessions(), untraced.sessions()...))
	res.Attempted, res.Failed = t.attempted, t.failed
	if t.unverified > 0 {
		res.Correct = false
	}
	cfg.info("generator %s", generatorLine(main))
	cfg.info("rounds %s", roundsLine(main))
	cfg.info("guards %s", guardLine(t))
	if !cfg.trace {
		setup := time.Duration(median(setups) * float64(time.Second))
		res.Metrics, err = endToEnd(main, setup)
		if err != nil {
			return result{}, err
		}
		ug, err := ungated(main, cfg.tail)
		if err != nil {
			return result{}, err
		}
		cfg.info("ungated %s", metricLine(ug))
	}
	cfg.info("meta %s", metaLine(cfg, w, main, setups))
	violations := teardown(f, d.pool, goroutines0)
	f = nil
	cfg.info("invariants %s", invariantLine(violations))
	return res, nil
}

// setupRuns is how many times a run brings its fleet up; setup_s is the
// median and the last fleet serves the run.
const setupRuns = 7

// setUp brings the workload's fleet up setupRuns times and returns the last
// with every set-up time (seconds) and the median PrefixResolve time. Each
// earlier fleet is closed and collected before its successor is timed, so
// every set-up starts from the same state.
func setUp(w workloadDef, work string) (*fleet, []float64, time.Duration, error) {
	var took, resolves []float64
	var f *fleet
	for i := range setupRuns {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, nil, 0, err
			}
			runtime.GC()
		}
		dir := ""
		if w.fileBacked {
			dir = filepath.Join(work, fmt.Sprintf("fleet-%d", i))
		}
		t0 := time.Now()
		next, err := bringUp(w, dir)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("setup %d: %w", i, err)
		}
		took = append(took, time.Since(t0).Seconds())
		resolves = append(resolves, next.resolveTime.Seconds())
		f = next
	}
	return f, took, time.Duration(median(resolves) * float64(time.Second)), nil
}

// startReplay starts the workload's background link-load writer, if any.
// The returned stop is idempotent; the channel yields the writer's error
// once it has exited.
func startReplay(w workloadDef, f *fleet) (stop func(), errc <-chan error) {
	ch := make(chan error, 1)
	if !w.replayLinks {
		ch <- nil
		return func() {}, ch
	}
	quit := make(chan struct{})
	go func() { ch <- f.replayLinks(25*time.Millisecond, quit) }()
	var stopped bool
	return func() {
		if !stopped {
			stopped = true
			close(quit)
		}
	}, ch
}

// traceLayers runs the probes over the traced pass's sessions, writes the
// span file, and computes the per-layer metrics.
func (d *runner) traceLayers(w workloadDef, cfg config, work string, traced, untraced passResult) (map[string]metric, error) {
	p, err := newProbes(w, d.f, work)
	if err != nil {
		return nil, err
	}
	defer p.close()
	probed := completed(traced.sessions())
	if len(probed) > 200 {
		probed = probed[:200]
	}
	pt, err := p.run(d.tr, probed, probeReps(len(probed)))
	if err != nil {
		return nil, err
	}
	spans := d.tr.snapshot()
	path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	self := selfTimeByName(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%q: %.3f", n, ms(self[n]))
	}
	cfg.info("trace {\"span_file\": %q, \"spans\": %d, \"self_ms_total\": {%s}}", path, len(spans), strings.Join(parts, ", "))
	return perLayer(traced, untraced, spans, pt, d.f, cfg.tail)
}
