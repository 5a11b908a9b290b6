package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"dvod/internal/transport"
)

// teardown checks the resource invariants a finished run must leave, reading
// them through public calls: no link bandwidth still committed, no admitted
// session or merge cohort still counted, no client buffer lease still out,
// and after Close no goroutine beyond those alive before the fleet was
// built. Work finishing asynchronously gets a grace period; what is still
// wrong after it is reported by name.
func teardown(f *fleet, pool *transport.BufferPool, goroutines0 int) []string {
	check := func() []string {
		var bad []string
		var links []string
		for id, mbps := range f.svc.CommittedLinkMbps() {
			if mbps != 0 {
				links = append(links, fmt.Sprintf("%s=%g", id, mbps))
			}
		}
		if len(links) > 0 {
			sort.Strings(links)
			bad = append(bad, "committed_link_mbps: "+strings.Join(links, " "))
		}
		g := readCounters(f).g
		for _, name := range []string{"admission.sessions", "merge.cohorts"} {
			if g[name] != 0 {
				bad = append(bad, fmt.Sprintf("%s: %g", name, g[name]))
			}
		}
		if n := pool.Outstanding(); n != 0 {
			bad = append(bad, fmt.Sprintf("client_pool_outstanding: %d", n))
		}
		return bad
	}
	bad := settle(3*time.Second, check)
	if err := f.close(); err != nil {
		bad = append(bad, "close: "+err.Error())
	}
	bad = append(bad, settle(5*time.Second, func() []string {
		if n := runtime.NumGoroutine(); n > goroutines0 {
			return []string{fmt.Sprintf("goroutines: %d after Close, %d before New", n, goroutines0)}
		}
		return nil
	})...)
	return bad
}

// settle re-runs check until it reports nothing or the grace period ends,
// returning its last report.
func settle(grace time.Duration, check func() []string) []string {
	deadline := time.Now().Add(grace)
	for {
		bad := check()
		if len(bad) == 0 || time.Now().After(deadline) {
			return bad
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func invariantLine(violations []string) string {
	b, _ := json.Marshal(map[string]any{"ok": len(violations) == 0, "violations": append([]string{}, violations...)})
	return string(b)
}

// metaLine records the machine and build a result came from.
func metaLine(cfg config, w workloadDef, pr passResult, setups []float64) string {
	kind := "memory"
	if w.fileBacked {
		kind = "file"
	}
	b, _ := json.Marshal(map[string]any{
		"workload":     w.name,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"commit":       commit(),
		"disk_kind":    kind,
		"sendfile":     pr.counterDelta("server.kernel_sends", false) > 0,
		"setup_s_each": setups,
	})
	return string(b)
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a checkout that has one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
