// Batched trial scheduling. StreamBatched partitions a job list into
// contiguous replicate groups and hands each group to a worker as one
// unit, executed through sim.ExecPlan.RunBatch: one plan compile and
// one lockstep kernel per group instead of per trial. Everything
// observable is unchanged from Stream — outcomes arrive in job order on
// one goroutine, per-trial seeds and observer sequences are identical,
// crashed trials stay isolated, per-worker telemetry shards merge the
// same way — so batching is purely a throughput knob.
//
// Grouping contract: jobs i and j may share a group only when they are
// replicates — identical Graph, New and Opts, differing only in Seed
// and (per-trial) Opts.Observer. The group callback declares the
// partition (consecutive jobs with equal group values may merge);
// callers like sweep pass their task index. Groups never span a group
// value change, and are capped at the batch width. A mis-grouped batch
// still produces correct per-trial results — RunBatch falls back to
// sequential solo lanes when lanes' tables differ — but wastes the
// batching.

package runner

import (
	"fmt"
	"time"

	"popgraph/internal/sim"
	"popgraph/internal/telemetry"
	"popgraph/internal/xrand"
)

// failedResult is the Result recorded for a trial that did not
// complete, identical to runOne's crash outcome.
func failedResult() sim.Result { return sim.Result{Steps: 0, Stabilized: false, Leader: -1} }

// RunBatched executes jobs like Run, in replicate groups of up to batch
// trials (see StreamBatched), and returns outcomes in job order.
func (p Pool) RunBatched(jobs []Job, batch int, group func(i int) int) []Outcome {
	outcomes := make([]Outcome, len(jobs))
	p.StreamBatched(jobs, batch, group, func(i int, o Outcome) { outcomes[i] = o })
	return outcomes
}

// StreamBatched executes jobs like Stream — outcomes delivered exactly
// once via emit, serialized, in job order — but schedules contiguous
// replicate groups of up to batch jobs as single worker units, each run
// through the lockstep batch kernels. group(i) identifies job i's
// replicate family (nil means all jobs are one family); a unit never
// crosses a change in group value. batch <= 1 degenerates to Stream.
//
// Within a unit, ElapsedNs is the unit's wall time divided evenly
// across its trials (lockstep interleaves them; per-trial attribution
// does not exist) and QueueWaitNs is the unit's queue wait. Everything
// else in each Outcome is byte-identical to the solo Stream run.
func (p Pool) StreamBatched(jobs []Job, batch int, group func(i int) int, emit func(i int, o Outcome)) {
	if batch <= 1 {
		p.Stream(jobs, emit)
		return
	}
	if len(jobs) == 0 {
		return
	}
	type unit struct{ start, end int } // jobs[start:end]
	var units []unit
	for s := 0; s < len(jobs); {
		e := s + 1
		for e < len(jobs) && e-s < batch && (group == nil || group(e) == group(s)) {
			e++
		}
		units = append(units, unit{s, e})
		s = e
	}
	workers := p.workers(len(units))
	endBatch := p.Journal.Span("run", map[string]any{
		"trials": len(jobs), "workers": workers, "batch": batch, "units": len(units)})
	defer endBatch()
	// Units tile the job list in ascending contiguous ranges, so
	// delivering units in order and members in range order is exactly
	// job order.
	schedule(p, workers, len(units), len(jobs), func(u int, shard *telemetry.Counters, queueWait int64) ([]Outcome, int) {
		os := runUnit(jobs[units[u].start:units[u].end], shard)
		for k := range os {
			os[k].QueueWaitNs = queueWait
			if shard != nil {
				shard.AddTrial(os[k].ElapsedNs, queueWait, os[k].Result.Stabilized, os[k].Failed())
			}
		}
		return os, len(os)
	}, func(u int, os []Outcome) {
		for k, o := range os {
			emit(units[u].start+k, o)
		}
	})
}

// runUnit executes one replicate group through RunBatch. The plan is
// compiled once from the first job's options with the shared Observer
// cleared; each lane gets its own job's observer, so per-trial
// observers (trajectories) record exactly their solo sequences. A
// compile error fails every trial with the message solo runs would
// report; a New panic fails only its trial, and the healthy lanes run
// as a compacted batch.
func runUnit(jobs []Job, shard *telemetry.Counters) []Outcome {
	out := make([]Outcome, len(jobs))
	opts := jobs[0].Opts
	if shard != nil && opts.Meter == nil {
		opts.Meter = shard
	}
	planOpts := opts
	planOpts.Observer = nil
	t0 := time.Now()
	ps := make([]sim.Protocol, 0, len(jobs))
	rs := make([]*xrand.Rand, 0, len(jobs))
	obs := make([]sim.Observer, 0, len(jobs))
	lane := make([]int, 0, len(jobs)) // job index of each healthy lane
	for i, j := range jobs {
		p, msg := newProtocol(j.New)
		if msg != "" {
			out[i] = Outcome{Result: failedResult(), Err: msg}
			continue
		}
		ps = append(ps, p)
		rs = append(rs, xrand.New(j.Seed))
		obs = append(obs, j.Opts.Observer)
		lane = append(lane, i)
	}
	// Constructors run before the compile, like runOne: a trial whose New
	// panicked reports the panic even on a misconfigured unit, and the
	// remaining trials all report the configuration error solo runs would.
	pl, err := sim.Compile(jobs[0].Graph, planOpts)
	if err != nil {
		for _, i := range lane {
			out[i] = Outcome{Result: failedResult(), Err: err.Error()}
		}
		return out
	}
	brs := pl.RunBatch(ps, rs, obs)
	// Setup and lockstep execution interleave the lanes; attribute the
	// unit's wall time evenly.
	per := time.Since(t0).Nanoseconds()
	if len(jobs) > 0 {
		per /= int64(len(jobs))
	}
	for i := range out {
		out[i].ElapsedNs = per
	}
	for k, br := range brs {
		o := Outcome{Result: br.Result, Err: br.Crashed, ElapsedNs: per}
		if br.Crashed == "" {
			if rep, ok := ps[k].(backupReporter); ok {
				o.Backup = rep.InBackup()
			}
		}
		out[lane[k]] = o
	}
	return out
}

// newProtocol invokes a job's factory with runner-style crash recovery,
// so a panicking constructor fails its own trial instead of the group.
func newProtocol(factory func() sim.Protocol) (p sim.Protocol, msg string) {
	defer func() {
		if e := recover(); e != nil {
			p, msg = nil, fmt.Sprint(e)
		}
	}()
	return factory(), ""
}
