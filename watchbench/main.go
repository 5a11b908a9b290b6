package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, runs the benchmark and prints its lines: the
// informational ones first, the JSON result last. It returns the exit code:
// 0 for a correct result, 1 when a byte failed verification (the result is
// still printed), 2 when the run could not produce a result.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("watchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{tail: minTail}
	fs.StringVar(&cfg.workload, "workload", "", "workload: zipf-local, edge-miss or flash-crowd")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's traffic is drawn from")
	fs.Float64Var(&cfg.seconds, "seconds", 50, "seconds measured over the open-loop and closed-loop phases")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	fs.StringVar(&cfg.dir, "dir", ".bench_build/watchbench", "directory for block files and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	if cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "watchbench: need -seconds > 0 and -trace 0 or 1")
		return 2
	}
	cfg.info = func(format string, a ...any) { fmt.Fprintf(stdout, format+"\n", a...) }
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "watchbench:", err)
		return 2
	}
	res, err := benchmark(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "watchbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "watchbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "watchbench: a delivered byte failed verification")
		return 1
	}
	return 0
}
