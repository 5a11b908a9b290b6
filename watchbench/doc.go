// Command watchbench is the repository's benchmark of the live watch path.
//
// It brings a six-site GRNET fleet up in process through the dvod facade,
// drives seeded watch traffic through real client players over loopback
// TCP (dial, hello, watch.ok, first cluster, last cluster), verifies every
// byte, and prints viewer-facing metrics for one workload. With -trace 1 it
// instead runs a traced pass, times the benchmark's own calls into single
// layers, writes the spans, and prints per-layer metrics.
//
// Run it from the repository root with
//
//	bash watchbench/run.sh --workload zipf-local --seed 1 --seconds 50 --trace 0
//
// README.md in this directory lists the workloads, every metric with its
// unit and better direction, which end-to-end metric each layer metric
// should move, and the known floors.
package main
