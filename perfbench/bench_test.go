package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"popgraph/internal/results"
	"popgraph/internal/runner"
	"popgraph/internal/sweep"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricsMatchBenchmarkJSON checks that every metric the command
// can print is listed in BENCHMARK.json with the same unit, direction
// and bound, and that the workloads agree.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, c := range []struct {
		kind string
		defs []metricDef
		file []jsonMetric
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		var want []jsonMetric
		for _, d := range c.defs {
			want = append(want, jsonMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
			if c.kind == "per_layer" && d.Moves == "" {
				t.Errorf("per-layer metric %s does not say which end-to-end metric it moves", d.Name)
			}
		}
		if !reflect.DeepEqual(c.file, want) {
			t.Errorf("BENCHMARK.json %s = %+v\nwant %+v", c.kind, c.file, want)
		}
	}
	var setup float64
	for _, d := range endToEnd {
		if d.Name == "setup_s" {
			setup = d.Bound
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > setup {
			t.Errorf("%s bound %v: want (0, 0.25] and no larger than setup_s's %v", d.Name, d.Bound, setup)
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the command has %d", names, len(workloads))
	}
}

// TestRenderChecksNames checks that a result can neither miss a defined
// metric nor print an undefined one.
func TestRenderChecksNames(t *testing.T) {
	full := sheet{}
	for _, d := range endToEnd {
		full[d.Name] = 1.5
	}
	got, err := full.render(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if got["wall_s"] != (value{Value: 1.5, Unit: "s"}) {
		t.Errorf("wall_s rendered as %+v", got["wall_s"])
	}
	missing := sheet{"wall_s": 1}
	if _, err := missing.render(endToEnd); err == nil {
		t.Error("a sheet missing metrics rendered")
	}
	full["bogus"] = 1
	if _, err := full.render(endToEnd); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("undefined metric: err = %v", err)
	}
}

// TestWorkloadInputsFollowSeed checks that a workload's inputs are a
// pure function of its seed: the same seed gives the same spec and the
// same trial seeds, another seed gives others.
func TestWorkloadInputsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.spec(7, "g.popg"), w.spec(7, "g.popg"), w.spec(8, "g.popg")
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two specs", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same spec", w.name)
		}
		if w.capped {
			continue // its graph is the snapshot prepareSnapshot builds from the seed
		}
		seeds := func(seed uint64) []uint64 {
			tasks, err := buildTasks(w, seed, "", 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			var out []uint64
			for _, t := range tasks {
				for _, j := range t.Jobs {
					out = append(out, j.Seed)
				}
			}
			return out
		}
		if s7 := seeds(7); !reflect.DeepEqual(s7, seeds(7)) || reflect.DeepEqual(s7, seeds(8)) {
			t.Errorf("%s: trial seeds do not follow the workload seed", w.name)
		}
	}
}

// smallRun executes a small grid the way cmd/sweep does and returns its
// tasks with the -no-timing records log and summary table.
func smallRun(t *testing.T, spec sweep.Spec) ([]sweep.Task, sweepRun) {
	t.Helper()
	tasks, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	recs := sweep.Execute(tasks, runner.Pool{Workers: 2})
	for i := range recs {
		recs[i].ElapsedNs, recs[i].QueueWaitNs = 0, 0
	}
	var log bytes.Buffer
	if err := results.Write(&log, recs); err != nil {
		t.Fatal(err)
	}
	return tasks, sweepRun{jsonl: log.Bytes(), stdout: summaryTable(spec, recs)}
}

// TestCorruptedRecordCounted checks that correct output passes every
// check and that one corrupted record is counted as a failure, both in
// a run to stabilization and in a capped run.
func TestCorruptedRecordCounted(t *testing.T) {
	stable := workload{name: "stable"}
	capped := workload{name: "capped", capped: true}
	for _, c := range []struct {
		w    workload
		spec sweep.Spec
	}{
		{stable, sweep.Spec{Name: "t", Seed: 3, Trials: 4, Graphs: []string{"clique:16", "torus:4x4"},
			Protocols: []string{"six-state", "fast"}}},
		{capped, sweep.Spec{Name: "t", Seed: 3, Trials: 2, Graphs: []string{"torus:16x16"},
			Protocols: []string{"six-state"}, MaxSteps: 200}},
	} {
		tasks, run := smallRun(t, c.spec)
		v, recs := checkRun(c.w, c.spec, tasks, run)
		if v.failed != 0 || v.attempted != len(recs)+len(tasks) {
			t.Fatalf("%s: clean run: %d of %d failed: %v", c.w.name, v.failed, v.attempted, v.notes)
		}

		// Change the first record's step count in the log: the record
		// check, the reference re-run and the table check all see it.
		lines := bytes.SplitAfter(run.jsonl, []byte("\n"))
		rec := recs[0]
		rec.Steps++
		var line bytes.Buffer
		if err := results.Write(&line, []results.Record{rec}); err != nil {
			t.Fatal(err)
		}
		lines[0] = line.Bytes()
		bad := run
		bad.jsonl = bytes.Join(lines, nil)
		v, _ = checkRun(c.w, c.spec, tasks, bad)
		if v.failed < 2 {
			t.Errorf("%s: corrupted record: %d failures (%v), want the record and its reference re-run",
				c.w.name, v.failed, v.notes)
		}

		// A record from another cell, a dropped record and an unreadable
		// log are failures too.
		swapped := append([]byte(nil), run.jsonl...)
		swapped = bytes.Replace(swapped, []byte(`"trial":0`), []byte(`"trial":1`), 1)
		if v, _ := checkRun(c.w, c.spec, tasks, sweepRun{jsonl: swapped, stdout: run.stdout}); v.failed == 0 {
			t.Errorf("%s: misnumbered record passed", c.w.name)
		}
		short := bytes.Join(lines[1:], nil)
		if v, _ := checkRun(c.w, c.spec, tasks, sweepRun{jsonl: short, stdout: run.stdout}); v.failed == 0 {
			t.Errorf("%s: missing record passed", c.w.name)
		}
		if v, _ := checkRun(c.w, c.spec, tasks, sweepRun{jsonl: []byte("{"), stdout: run.stdout}); v.failed != sweep.Trials(tasks) {
			t.Errorf("%s: unreadable log: %d failures, want every trial", c.w.name, v.failed)
		}
	}
}

// TestPipelineMatchesSweep checks that the in-process pipeline, traced
// or not, writes the records and table cmd/sweep's code path produces,
// and that the traced run has one trial, protocol_new, write and
// aggregate span per trial.
func TestPipelineMatchesSweep(t *testing.T) {
	spec := sweep.Spec{Name: "t", Seed: 5, Trials: 3, Graphs: []string{"cycle:N"}, Sizes: []int{8, 12},
		Protocols: []string{"six-state", "identifier"}}
	_, want := smallRun(t, spec)
	out := filepath.Join(t.TempDir(), "r.jsonl")
	for _, tr := range []*tracer{nil, {run: 1}} {
		pr, err := runPipeline(spec, out, tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.jsonl) || !bytes.Equal(pr.table, want.stdout) {
			t.Errorf("traced %v: pipeline output differs:\n%s\nwant\n%s", tr != nil, got, want.jsonl)
		}
		if tr == nil {
			continue
		}
		count := map[string]int{}
		for _, s := range tr.spans {
			count[s.name]++
			if s.end < s.start {
				t.Errorf("span %+v ends before it starts", s)
			}
		}
		if n := pr.trials; count["trial"] != n || count["protocol_new"] != n || count["write"] != n+1 || count["aggregate"] != n+1 {
			t.Errorf("span counts %v for %d trials", count, n)
		}
		if spans := filepath.Join(t.TempDir(), "spans.jsonl"); tr.writeJSONL(spans) != nil {
			t.Error("writing spans failed")
		}
	}
}

// TestSelfTimes checks that a span's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	root := tr.add("run", -1, 0, 100)
	trial := tr.add("trial", root, 10, 60)
	tr.add("protocol_new", trial, 10, 15)
	tr.add("trial", root, 60, 90)
	got := tr.selfTimes()
	want := map[string]int64{"run": 20, "trial": 75, "protocol_new": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}
