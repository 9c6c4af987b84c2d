package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"popgraph/internal/results"
)

// TestStreamWriterMatchesResultsWrite — the plain JSONL sink's one
// reused encoder emits exactly results.Write's bytes, including the
// HTML escaping of <, > and & in an error message.
func TestStreamWriterMatchesResultsWrite(t *testing.T) {
	recs := []results.Record{
		{Graph: "cycle-16", N: 16, M: 16, Protocol: "six-state", Seed: 9, Steps: 512, Stabilized: true, Leader: 5,
			ElapsedNs: 3400, QueueWaitNs: 12},
		{Graph: "cycle-16", N: 16, M: 16, Protocol: "star-trivial", Trial: 1, Seed: 10, Leader: -1,
			Error: `star: graph "cycle-16" is not a star <degree 2> & more`},
	}
	var want bytes.Buffer
	if err := results.Write(&want, recs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.jsonl")
	w, err := newStreamWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if err := w.Append(i, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("sink bytes\n%s\nresults.Write bytes\n%s", got, want.Bytes())
	}
	if !bytes.Contains(got, []byte(`\u003cdegree 2\u003e \u0026 more`)) {
		t.Fatalf("error field not HTML-escaped: %s", got)
	}
}

func TestProgressLine(t *testing.T) {
	for _, c := range []struct {
		done, total int
		elapsed     time.Duration
		tty, eta    bool
		want        string
	}{
		{3, 10, time.Second, false, false, "sweep: 3/10 trials\n"},
		{10, 10, time.Second, false, false, "sweep: 10/10 trials\n"},
		{5, 20, 10 * time.Second, false, true, "sweep: 5/20 trials (ETA 30s)\n"},
		{20, 20, 10 * time.Second, false, true, "sweep: 20/20 trials\n"},
		{0, 20, 0, false, true, "sweep: 0/20 trials\n"},
		{3, 10, time.Second, true, false, "\rsweep: 3/10 trials        "},
		{10, 10, time.Second, true, false, "\rsweep: 10/10 trials        \n"},
		{5, 20, 10 * time.Second, true, true, "\rsweep: 5/20 trials (ETA 30s)        "},
	} {
		if got := progressLine(c.done, c.total, c.elapsed, c.tty, c.eta); got != c.want {
			t.Errorf("progressLine(%d, %d, %v, tty=%v, eta=%v) = %q, want %q",
				c.done, c.total, c.elapsed, c.tty, c.eta, got, c.want)
		}
	}
}

// TestProgressPrinterThrottlesOffTerminal — off a terminal a burst of
// updates prints one line per report, throttled, ending with the final
// done == total line.
func TestProgressPrinterThrottlesOffTerminal(t *testing.T) {
	var buf bytes.Buffer
	report := progressPrinter(&buf, false, false, time.Now())
	for done := 1; done <= 1000; done++ {
		report(done, 1000)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) < 1 || len(lines) > 3 {
		t.Fatalf("%d lines for a burst of 1000 updates:\n%s", len(lines), buf.Bytes())
	}
	if last := string(lines[len(lines)-1]); last != "sweep: 1000/1000 trials" {
		t.Fatalf("last line %q", last)
	}
	if bytes.ContainsRune(buf.Bytes(), '\r') {
		t.Fatalf("carriage return off a terminal: %q", buf.Bytes())
	}
}
