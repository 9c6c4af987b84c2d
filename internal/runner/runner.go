// Package runner is the batch trial scheduler: it fans independent
// simulation trials across a worker pool while keeping results
// deterministic. Every trial carries its own explicit seed, derived from
// a base seed and the trial index, and outcomes are returned in job
// order, so a batch produces byte-identical results at one worker and at
// runtime.NumCPU() workers. Trials are crash-isolated: a panicking trial
// is recorded as a failed Outcome instead of taking down the process.
//
// The experiment harness (internal/exp), cmd/popsim and cmd/sweep all
// execute their trials through this package.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"popgraph/internal/graph"
	"popgraph/internal/sim"
	"popgraph/internal/telemetry"
	"popgraph/internal/xrand"
)

// goldenGamma is the 64-bit golden-ratio increment used to derive
// per-trial seeds; distinct trials land in well-separated splitmix
// streams.
const goldenGamma = 0x9e3779b97f4a7c15

// SeedFor derives the deterministic seed of trial i (0-based) from a
// base seed. The derivation is position-only: it does not depend on
// worker count or scheduling order.
func SeedFor(base uint64, trial int) uint64 {
	return base + goldenGamma*uint64(trial+1)
}

// Job is one independent simulation trial: a protocol instance from New
// runs on Graph with a private generator seeded from Seed.
type Job struct {
	Graph graph.Graph
	// New must return a fresh protocol instance; instances are never
	// shared between concurrently running jobs.
	New  func() sim.Protocol
	Seed uint64
	Opts sim.Options
}

// Outcome is the result of one Job.
type Outcome struct {
	Result sim.Result
	// Backup is the number of nodes that entered the protocol's backup
	// phase (0 for protocols without one).
	Backup int
	// Err is the failure message when the trial did not complete: an
	// invalid run configuration rejected by sim.Compile (tiny graph,
	// drop rate outside [0, 1), scheduler built for a different graph),
	// or the panic message when the trial crashed (e.g. a protocol
	// rejecting its graph at Reset inside a sweep grid); empty on
	// success. A failed trial has Result.Stabilized = false and
	// Leader = -1, and never takes down the batch: the pool records the
	// failure and keeps draining the remaining jobs.
	Err string
	// ElapsedNs is the trial's wall-clock execution time and QueueWaitNs
	// the time it spent waiting between batch submission and a worker
	// picking it up, both in nanoseconds. Timing is host- and
	// load-dependent — everything else in an Outcome is deterministic for
	// a fixed seed, so determinism comparisons go through Same, not
	// struct equality.
	ElapsedNs   int64
	QueueWaitNs int64
}

// Same reports whether two outcomes agree on every deterministic field
// (result, backup count, error), ignoring the wall-clock timing.
func (o Outcome) Same(other Outcome) bool {
	return o.Result == other.Result && o.Backup == other.Backup && o.Err == other.Err
}

// Failed reports whether the trial crashed instead of completing.
func (o Outcome) Failed() bool { return o.Err != "" }

// backupReporter is implemented by protocols with a backup phase.
type backupReporter interface{ InBackup() int }

// Pool schedules jobs across worker goroutines.
type Pool struct {
	// Workers is the number of concurrent trials; <= 0 means
	// GOMAXPROCS(0).
	Workers int
	// Progress, if non-nil, receives completion updates with the number
	// of finished trials and the total. Calls are serialized on a
	// dedicated goroutine, off the workers' critical path: a slow
	// callback coalesces updates (counts stay strictly increasing and the
	// final call always reports done == total) instead of serializing
	// trial completion.
	Progress func(done, total int)
	// Meter, if non-nil, aggregates flight-recorder telemetry for the
	// batch. Each worker feeds a private shard — engine accounting via
	// sim.Options.Meter plus per-trial wall-time and queue-wait — and the
	// shards are merged into Meter after the pool drains, so the hot path
	// never contends on shared counters. Jobs that already carry their
	// own Opts.Meter keep it.
	Meter *telemetry.Counters
	// Journal, if non-nil, receives a "run" span covering the whole
	// batch. Nil is fine: a nil journal records nothing.
	Journal *telemetry.Journal
}

// Run executes all jobs and returns their outcomes in job order,
// independent of worker count. It blocks until every job has finished.
func (p Pool) Run(jobs []Job) []Outcome {
	outcomes := make([]Outcome, len(jobs))
	p.Stream(jobs, func(i int, o Outcome) { outcomes[i] = o })
	return outcomes
}

// Stream executes all jobs and delivers each outcome exactly once via
// emit — serialized on the calling goroutine, in job order, as soon as
// the outcome and all its predecessors are available. This is the
// cell-completion seam streaming consumers build on: a JSONL writer can
// flush record i the moment trials 0..i have finished (no end-of-batch
// buffering), and a checkpoint can mark cell i completed knowing every
// earlier cell already flushed.
//
// Outcomes completing ahead of a straggler or of a slow emit wait in a
// reorder window of 1024 slots (see window). A worker blocks only
// before starting a job that is a full window ahead of the next outcome
// to emit, so at most 1024 outcomes are ever buffered, and emit is
// never called with a lock held. Stream blocks until every job has
// finished and been delivered.
func (p Pool) Stream(jobs []Job, emit func(i int, o Outcome)) {
	workers := p.workers(len(jobs))
	if workers == 0 {
		return
	}
	endBatch := p.Journal.Span("run", map[string]any{"trials": len(jobs), "workers": workers})
	defer endBatch()
	schedule(p, workers, len(jobs), len(jobs), func(i int, shard *telemetry.Counters, queueWait int64) (Outcome, int) {
		j := jobs[i]
		if shard != nil && j.Opts.Meter == nil {
			j.Opts.Meter = shard
		}
		t0 := time.Now()
		o := runOne(j)
		o.ElapsedNs = time.Since(t0).Nanoseconds()
		o.QueueWaitNs = queueWait
		if shard != nil {
			shard.AddTrial(o.ElapsedNs, o.QueueWaitNs, o.Result.Stabilized, o.Failed())
		}
		return o, 1
	}, emit)
}

// window is the reorder window of Stream and StreamBatched, in
// scheduling units (one job for Stream, one replicate group for
// StreamBatched): the most units that may be claimed ahead of the next
// one to be delivered. It bounds the buffered outcomes at window jobs
// (window·batch for StreamBatched) whatever the emit speed — 64 KiB of
// Outcomes for Stream — and is wide enough that workers reach it only
// when emit itself is the bottleneck, not when one trial straggles or
// one emit call is slow.
const window = 1024

// workers resolves the pool's worker count for n units: Workers, or
// GOMAXPROCS(0) when unset, capped at n.
func (p Pool) workers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, n)
}

// schedule runs units 0..units-1 on workers goroutines and passes each
// unit's result to deliver in unit order on the calling goroutine. run
// executes one unit on a worker, given the worker's telemetry shard
// (nil without a pool meter) and the unit's queue wait in nanoseconds,
// and returns the result with the number of trials it completed, which
// drives Progress towards trials. Stream and StreamBatched differ only
// in what a unit is.
func schedule[T any](p Pool, workers, units, trials int,
	run func(u int, shard *telemetry.Counters, queueWait int64) (T, int),
	deliver func(u int, v T)) {
	var (
		start = time.Now()
		h     = newHandoff[T](units)
		done  atomic.Int64
		wg    sync.WaitGroup
		repWG sync.WaitGroup
	)
	// A panicking deliver unwinds through here; stop lets the workers
	// finish their current unit and exit instead of waiting for window
	// space forever.
	defer h.stop()
	var notify chan struct{}
	if p.Progress != nil {
		// The reporter goroutine owns all Progress calls: workers only
		// bump the atomic counter and poke the buffered channel (never
		// blocking), so a slow callback coalesces updates rather than
		// stalling trial completion. Counts are strictly increasing
		// because one goroutine reads the monotone counter, and the
		// post-close report guarantees a final done == total call even
		// when the last notification was coalesced away.
		notify = make(chan struct{}, 1)
		repWG.Add(1)
		go func() {
			defer repWG.Done()
			last := int64(0)
			report := func() {
				if d := done.Load(); d > last {
					last = d
					p.Progress(int(d), trials)
				}
			}
			for range notify {
				report()
			}
			report()
		}()
	}
	shards := make([]*telemetry.Counters, workers)
	wg.Add(workers)
	for w := range shards {
		if p.Meter != nil {
			shards[w] = new(telemetry.Counters)
		}
		shard := shards[w]
		go func() {
			defer wg.Done()
			for u := h.claim(); u >= 0; u = h.claim() {
				v, n := run(u, shard, time.Since(start).Nanoseconds())
				h.put(u, v)
				done.Add(int64(n))
				if notify != nil {
					select {
					case notify <- struct{}{}:
					default:
					}
				}
			}
		}()
	}
	for h.base < units {
		lo, hi := h.take()
		for u := lo; u < hi; u++ {
			deliver(u, h.slots[u%len(h.slots)])
		}
		h.release(lo, hi)
	}
	wg.Wait()
	if notify != nil {
		close(notify)
		repWG.Wait()
	}
	if p.Meter != nil {
		for _, s := range shards {
			p.Meter.Merge(s.Snapshot())
		}
	}
}

// handoff is the reorder window between the workers and the delivering
// goroutine: a ring of slots indexed by unit number modulo its length.
// Unit u may be claimed only while u < base+len(slots), so each slot
// belongs to one unit at a time and is rewritten only after release
// has delivered and freed it. That is what lets the deliverer read
// ready slots outside the lock.
type handoff[T any] struct {
	mu      sync.Mutex
	space   sync.Cond // broadcast when base advances or the handoff stops
	filled  sync.Cond // signalled when slot base becomes ready
	slots   []T
	ready   []bool
	next    int // next unit to claim
	base    int // next unit to deliver; written only by the deliverer
	units   int
	stopped bool
}

func newHandoff[T any](units int) *handoff[T] {
	w := min(window, units)
	h := &handoff[T]{slots: make([]T, w), ready: make([]bool, w), units: units}
	h.space.L = &h.mu
	h.filled.L = &h.mu
	return h
}

// claim returns the next unit to run, waiting while it lies a full
// window ahead of delivery, or -1 when no units remain.
func (h *handoff[T]) claim() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopped || h.next >= h.units {
		return -1
	}
	u := h.next
	h.next++
	for u >= h.base+len(h.slots) && !h.stopped {
		h.space.Wait()
	}
	if h.stopped {
		return -1
	}
	return u
}

// put stores unit u's result in its slot.
func (h *handoff[T]) put(u int, v T) {
	h.mu.Lock()
	h.slots[u%len(h.slots)] = v
	h.ready[u%len(h.slots)] = true
	if u == h.base {
		h.filled.Signal()
	}
	h.mu.Unlock()
}

// take waits for unit base to be ready and returns the ready run
// [lo, hi) starting there.
func (h *handoff[T]) take() (lo, hi int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	w := len(h.slots)
	for !h.ready[h.base%w] {
		h.filled.Wait()
	}
	lo, hi = h.base, h.base+1
	for hi < h.units && hi < lo+w && h.ready[hi%w] {
		hi++
	}
	return lo, hi
}

// release frees the slots of the delivered units [lo, hi) and wakes
// workers waiting for window space.
func (h *handoff[T]) release(lo, hi int) {
	h.mu.Lock()
	var zero T
	for u := lo; u < hi; u++ {
		h.slots[u%len(h.slots)] = zero
		h.ready[u%len(h.slots)] = false
	}
	h.base = hi
	h.space.Broadcast()
	h.mu.Unlock()
}

// stop makes every waiting and future claim return -1. After a normal
// drain all units are claimed and it changes nothing.
func (h *handoff[T]) stop() {
	h.mu.Lock()
	h.stopped = true
	h.space.Broadcast()
	h.mu.Unlock()
}

// Run executes jobs with the default pool (one worker per CPU).
func Run(jobs []Job) []Outcome { return Pool{}.Run(jobs) }

func runOne(j Job) (o Outcome) {
	// The recover only catches genuine crashes (a protocol panicking at
	// Reset or Step); configuration errors surface through sim.RunE
	// below without ever raising a panic.
	defer func() {
		if p := recover(); p != nil {
			o = Outcome{
				Result: sim.Result{Steps: 0, Stabilized: false, Leader: -1},
				Err:    fmt.Sprint(p),
			}
		}
	}()
	p := j.New()
	r := xrand.New(j.Seed)
	res, err := sim.RunE(j.Graph, p, r, j.Opts)
	if err != nil {
		return Outcome{
			Result: sim.Result{Steps: 0, Stabilized: false, Leader: -1},
			Err:    err.Error(),
		}
	}
	o = Outcome{Result: res}
	if br, ok := p.(backupReporter); ok {
		o.Backup = br.InBackup()
	}
	return o
}

// TrialJobs builds the standard batch: trials independent repetitions of
// factory() on g, seeding trial i with SeedFor(seed, i). trials < 1 is
// treated as 1.
func TrialJobs(g graph.Graph, factory func() sim.Protocol, seed uint64,
	trials int, opts sim.Options) []Job {
	if trials < 1 {
		trials = 1
	}
	jobs := make([]Job, trials)
	for i := range jobs {
		jobs[i] = Job{Graph: g, New: factory, Seed: SeedFor(seed, i), Opts: opts}
	}
	return jobs
}
