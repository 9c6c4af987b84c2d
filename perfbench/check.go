package main

import (
	"bytes"
	"fmt"

	"popgraph/internal/results"
	"popgraph/internal/runner"
	"popgraph/internal/sim"
	"popgraph/internal/sweep"
	"popgraph/internal/xrand"
)

// refBound is the step bound of the reference re-runs: a sampled trial
// that stabilized within it is re-run whole on the reference kernel; a
// longer one has its first refBound steps run on both kernels.
const refBound = 1 << 20

// verdict counts the trials a run attempted and the failures it found:
// crashed trials plus every verification mismatch.
type verdict struct {
	attempted, failed int
	notes             []string // the first few failures, for stderr
}

// maxNotes caps the failure descriptions a verdict keeps.
const maxNotes = 8

// fail records n failures with a description.
func (v *verdict) fail(n int, format string, args ...any) {
	v.failed += n
	if len(v.notes) < maxNotes {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// merge adds another verdict's counts and notes.
func (v *verdict) merge(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.notes = append(v.notes, o.notes...)
	v.notes = v.notes[:min(len(v.notes), maxNotes)]
}

// checkRecords compares a sweep's records one by one with the grid
// Build materialized: each must be the record sweep.TrialRecord makes
// for its cell and trial, carry no error and no timing, and end as the
// workload expects — stabilized with a leader, or at the step cap.
// Every trial of the grid counts as attempted.
func checkRecords(w workload, tasks []sweep.Task, recs []results.Record) verdict {
	v := verdict{attempted: sweep.Trials(tasks)}
	if len(recs) != v.attempted {
		v.fail(max(len(recs)-v.attempted, v.attempted-len(recs)),
			"%d records for %d trials", len(recs), v.attempted)
	}
	k := 0
	for ti := range tasks {
		t := &tasks[ti]
		for trial := range t.Jobs {
			if k >= len(recs) {
				return v
			}
			rec := recs[k]
			k++
			if msg := recordProblem(w, t, trial, rec); msg != "" {
				v.fail(1, "%s × %s × %s trial %d: %s", t.GraphSpec, t.SchedSpec, t.ProtoSpec, trial, msg)
			}
		}
	}
	return v
}

// recordProblem describes what is wrong with one record, or returns "".
func recordProblem(w workload, t *sweep.Task, trial int, rec results.Record) string {
	if rec.Failed() {
		return "crashed: " + rec.Error
	}
	res := sim.Result{Steps: rec.Steps, Stabilized: rec.Stabilized, Leader: rec.Leader}
	if want := sweep.TrialRecord(*t, trial, runner.Outcome{Result: res, Backup: rec.Backup}); rec != want {
		return fmt.Sprintf("record %+v does not match its grid cell (want %+v)", rec, want)
	}
	if w.capped {
		if rec.Stabilized || rec.Steps != t.Jobs[trial].Opts.MaxSteps || rec.Leader != -1 {
			return fmt.Sprintf("capped trial ended at %+v", res)
		}
		return ""
	}
	if !rec.Stabilized || rec.Steps <= 0 || rec.Leader < 0 || rec.Leader >= rec.N {
		return fmt.Sprintf("trial did not stabilize to one leader: %+v", res)
	}
	return ""
}

// checkReference re-runs the first trial of every cell through sim.RunE
// with Options.Reference, the generic step-at-a-time kernel, and
// requires the Result the sweep recorded. A trial longer than refBound
// steps instead runs its first refBound steps on the default and the
// reference kernel, which must agree on the Result and the generator
// state after the run.
func checkReference(tasks []sweep.Task, recs []results.Record) verdict {
	var v verdict
	k := 0
	for ti := range tasks {
		t := &tasks[ti]
		first := k
		k += len(t.Jobs)
		if len(t.Jobs) == 0 || first >= len(recs) {
			continue
		}
		v.attempted++
		job, rec := t.Jobs[0], recs[first]
		ref := job.Opts
		ref.Reference = true
		if rec.Steps <= refBound {
			got, err := sim.RunE(job.Graph, job.New(), xrand.New(job.Seed), ref)
			want := sim.Result{Steps: rec.Steps, Stabilized: rec.Stabilized, Leader: rec.Leader}
			if err != nil || got != want {
				v.fail(1, "%s × %s × %s: reference run gave %+v (err %v), sweep recorded %+v",
					t.GraphSpec, t.SchedSpec, t.ProtoSpec, got, err, want)
			}
			continue
		}
		fast := job.Opts
		fast.MaxSteps, ref.MaxSteps = refBound, refBound
		rf, rr := xrand.New(job.Seed), xrand.New(job.Seed)
		a, errA := sim.RunE(job.Graph, job.New(), rf, fast)
		b, errB := sim.RunE(job.Graph, job.New(), rr, ref)
		if errA != nil || errB != nil || a != b || rf.Save() != rr.Save() {
			v.fail(1, "%s × %s × %s: first %d steps differ: default %+v (err %v), reference %+v (err %v)",
				t.GraphSpec, t.SchedSpec, t.ProtoSpec, refBound, a, errA, b, errB)
		}
	}
	return v
}

// tableTitle is the caption cmd/sweep prints above its summary table.
func tableTitle(spec sweep.Spec) string {
	name := spec.Name
	if name == "" {
		name = "sweep"
	}
	return fmt.Sprintf("%s (seed %d)", name, spec.Seed)
}

// summaryTable aggregates records the way cmd/sweep does and renders
// its text table.
func summaryTable(spec sweep.Spec, recs []results.Record) []byte {
	acc := results.NewAccumulator()
	for _, rec := range recs {
		acc.Add(rec)
	}
	var b bytes.Buffer
	results.SummaryTable(tableTitle(spec), acc.Groups()).WriteText(&b)
	return b.Bytes()
}

// checkRun verifies one sweep process's output in full: the records,
// the reference re-runs and the summary table, which must equal the
// table aggregated here from the same records.
func checkRun(w workload, spec sweep.Spec, tasks []sweep.Task, run sweepRun) (verdict, []results.Record) {
	recs, err := results.Read(bytes.NewReader(run.jsonl))
	if err != nil {
		v := verdict{attempted: sweep.Trials(tasks)}
		v.fail(v.attempted, "unreadable records log: %v", err)
		return v, nil
	}
	v := checkRecords(w, tasks, recs)
	v.merge(checkReference(tasks, recs))
	if !bytes.Equal(run.stdout, summaryTable(spec, recs)) {
		v.fail(1, "summary table differs from the aggregate of the records:\n%s", run.stdout)
	}
	return v, recs
}
