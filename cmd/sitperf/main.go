// Command sitperf is the repository's benchmark: it runs each workload
// against a real sitserve deployment on a loopback listener, prints every
// metric as `workload metric value unit` followed by one JSON object, and
// exits non-zero on any correctness failure. See internal/perf/README.md.
//
// Usage (from this directory):
//
//	go run . [-workload W] [-seed N] [-seconds N] [-trace 0|1] [-out DIR] [-cache DIR]
package main

import (
	"os"

	"condsel/cmd/sitperf/internal/perf"
)

func main() {
	os.Exit(perf.Main(os.Args[1:], os.Stdout, os.Stderr))
}
