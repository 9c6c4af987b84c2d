package main

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"time"

	"popgraph/internal/results"
	"popgraph/internal/runner"
	"popgraph/internal/sim"
	"popgraph/internal/sweep"
)

// span is one traced interval of the in-process pipeline. Times are
// nanoseconds since the run started.
type span struct {
	name       string
	start, end int64
	parent     int // index of the causing span in the run's list; -1 for the root
}

// tracer keeps one run's spans in memory. A nil tracer records nothing
// and reads no clock, which is the untraced pipeline.
type tracer struct {
	run   int
	t0    time.Time
	spans []span
}

// now returns the time since the run started.
func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// begin opens a span and returns its index.
func (tr *tracer) begin(name string, parent int) int {
	if tr == nil {
		return -1
	}
	tr.spans = append(tr.spans, span{name: name, start: tr.now(), parent: parent})
	return len(tr.spans) - 1
}

// end closes the span begin opened.
func (tr *tracer) end(i int) {
	if tr != nil {
		tr.spans[i].end = tr.now()
	}
}

// add records a span measured elsewhere.
func (tr *tracer) add(name string, parent int, start, end int64) int {
	tr.spans = append(tr.spans, span{name: name, start: start, end: end, parent: parent})
	return len(tr.spans) - 1
}

// selfTimes sums, per span name, each span's duration minus the part
// its child spans cover.
func (tr *tracer) selfTimes() map[string]int64 {
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := make(map[string]int64)
	for i, s := range tr.spans {
		self[s.name] += s.end - s.start - child[i]
	}
	return self
}

// writeJSONL writes the spans as JSON Lines (name, start_ns, end_ns,
// parent, run), one span a line.
func (tr *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var line []byte
	for _, s := range tr.spans {
		line = append(line[:0], `{"name":"`...)
		line = append(line, s.name...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, `,"run":`...)
		line = strconv.AppendInt(line, int64(tr.run), 10)
		line = append(line, "}\n"...)
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pipelineRun is one in-process run of the cmd/sweep pipeline.
type pipelineRun struct {
	wallNs  int64
	poolNs  int64 // wall time of runner.Pool.Stream
	trialNs int64 // Σ Outcome.ElapsedNs
	trials  int
	table   []byte
}

// runPipeline rebuilds cmd/sweep's unsharded pipeline from public
// calls — sweep.Spec.Build, runner.Pool.Stream, sweep.TrialRecord,
// results.Write, results.Accumulator and results.SummaryTable — and
// writes the -no-timing records log to out. With a tracer it records a
// span around each call: build, every trial (from Outcome timing) with
// its protocol construction inside, every record's write and
// aggregation, the final flush, aggregate and table.
func runPipeline(spec sweep.Spec, out string, tr *tracer) (pipelineRun, error) {
	t0 := time.Now()
	if tr != nil {
		tr.t0 = t0
	}
	root := tr.begin("run", -1)
	b := tr.begin("build", root)
	tasks, err := spec.Build()
	tr.end(b)
	if err != nil {
		return pipelineRun{}, err
	}
	var jobs []runner.Job
	var taskOf, trialOf []int
	for ti := range tasks {
		for trial := range tasks[ti].Jobs {
			jobs = append(jobs, tasks[ti].Jobs[trial])
			taskOf = append(taskOf, ti)
			trialOf = append(trialOf, trial)
		}
	}
	var newSpan [][2]int64
	if tr != nil {
		tr.spans = append(make([]span, 0, 4*len(jobs)+8), tr.spans...)
		newSpan = make([][2]int64, len(jobs))
		for i := range jobs {
			newProto := jobs[i].New
			jobs[i].New = func() sim.Protocol {
				start := tr.now()
				p := newProto()
				newSpan[i] = [2]int64{start, tr.now()}
				return p
			}
		}
	}
	f, err := os.Create(out)
	if err != nil {
		return pipelineRun{}, err
	}
	bw := bufio.NewWriterSize(f, 64*1024)
	acc := results.NewAccumulator()
	var run pipelineRun
	var writeErr error
	poolStart := time.Now()
	ps := tr.begin("pool", root)
	runner.Pool{Workers: workers()}.Stream(jobs, func(i int, o runner.Outcome) {
		run.trialNs += o.ElapsedNs
		if tr != nil {
			start := tr.spans[ps].start + o.QueueWaitNs
			t := tr.add("trial", ps, start, start+o.ElapsedNs)
			tr.add("protocol_new", t, newSpan[i][0], newSpan[i][1])
		}
		w := tr.begin("write", ps)
		rec := sweep.TrialRecord(tasks[taskOf[i]], trialOf[i], o)
		rec.ElapsedNs, rec.QueueWaitNs = 0, 0
		if writeErr == nil {
			writeErr = results.Write(bw, []results.Record{rec})
		}
		tr.end(w)
		a := tr.begin("aggregate", ps)
		acc.Add(rec)
		tr.end(a)
	})
	tr.end(ps)
	run.poolNs = int64(time.Since(poolStart))
	w := tr.begin("write", root)
	if err := bw.Flush(); err != nil && writeErr == nil {
		writeErr = err
	}
	if err := f.Close(); err != nil && writeErr == nil {
		writeErr = err
	}
	tr.end(w)
	if writeErr != nil {
		return pipelineRun{}, writeErr
	}
	a := tr.begin("aggregate", root)
	groups := acc.Groups()
	tr.end(a)
	t := tr.begin("table", root)
	var table bytes.Buffer
	results.SummaryTable(tableTitle(spec), groups).WriteText(&table)
	tr.end(t)
	tr.end(root)
	run.wallNs = int64(time.Since(t0))
	run.trials = len(jobs)
	run.table = table.Bytes()
	return run, nil
}
