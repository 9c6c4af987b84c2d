package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"

	"popgraph/internal/snapshot"
	"popgraph/internal/sweep"
)

// maxWorkers caps the sweep's worker count. The benchmark never runs
// more trials at once than the host has cores.
const maxWorkers = 2

// workers is the worker count every pool and sweep process uses.
func workers() int { return min(maxWorkers, runtime.NumCPU()) }

// Large-graph inputs: a 10⁶-node Watts–Strogatz graph loaded from a
// snapshot, with capped trials.
const (
	largeSpec = "ws:1000000:10:0.1"
	largeCap  = 1 << 22
)

// workload is one named set of sweep inputs. Everything it produces is
// a pure function of the workload seed.
type workload struct {
	name string
	// spec returns the sweep spec for a seed; snap is the path of the
	// large-graph snapshot, used by workloads that load it.
	spec func(seed uint64, snap string) sweep.Spec
	// capped workloads run every trial to the step cap; the others run
	// every trial to stabilization.
	capped bool
}

// workloads lists the benchmark's workloads; BENCHMARK.json records why
// each was chosen.
var workloads = []workload{
	{
		// Tens of thousands of short six-state trials on 16–32-node
		// graphs: per-trial setup and settle, pool dispatch, record
		// writing and aggregation dominate.
		name: "replicate",
		spec: func(seed uint64, _ string) sweep.Spec {
			return sweep.Spec{
				Name:      "replicate",
				Seed:      seed,
				Trials:    20000,
				Graphs:    []string{"clique:N", "star:N", "cycle:16", "hypercube:4", "torus:4x4"},
				Sizes:     []int{16, 32},
				Protocols: []string{"six-state"},
			}
		},
	},
	{
		// Table 1 shaped: three protocols on 64–576-node families, a few
		// dozen trials per cell, each to stabilization. The kernel and
		// protocol update dominate; trials are heavy-tailed. The cycle
		// stops at 128 nodes: six-state on a 256-cycle has a stabilization
		// time sd of ~80% of its mean, which alone made the sweep's wall
		// time vary by ~10% from seed to seed.
		name: "ladder",
		spec: func(seed uint64, _ string) sweep.Spec {
			return sweep.Spec{
				Name:   "ladder",
				Seed:   seed,
				Trials: 96,
				Graphs: []string{"cycle:64", "cycle:128", "clique:64", "clique:256",
					"lollipop:32:32", "torus:16x16", "torus:24x24"},
				Protocols: []string{"six-state", "fast", "identifier"},
			}
		},
	},
	{
		// Six-state on a 10⁶-node snapshot under two schedulers, one
		// capped trial per worker: the same kernels with a working set
		// far beyond the per-core L2.
		name: "large-graph",
		spec: func(seed uint64, snap string) sweep.Spec {
			return sweep.Spec{
				Name:       "large-graph",
				Seed:       seed,
				Trials:     workers(),
				Graphs:     []string{"mmap:" + snap},
				Schedulers: []string{"uniform", "weighted:snap"},
				Protocols:  []string{"six-state"},
				MaxSteps:   largeCap,
			}
		},
		capped: true,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// prepareSnapshot builds the large-graph snapshot for seed with
// cmd/preprocess — the graph instance a sweep seeded seed would
// generate for its first graph spec, with exponential edge weights and
// the six-state table — then loads it and runs the full content check.
// This preparation is not timed; any failure fails the run.
func prepareSnapshot(bin, path string, seed uint64) (*snapshot.Snapshot, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(bin, "preprocess"), "-q",
		"-graph", largeSpec, "-sweep-seed", strconv.FormatUint(seed, 10), "-sweep-index", "0",
		"-tables", "six-state", "-weights", "exp", "-out", path)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("building snapshot %s: %w", path, err)
	}
	s, err := snapshot.LoadMmap(path)
	if err != nil {
		return nil, err
	}
	if err := snapshot.Verify(s); err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	return s, nil
}
