package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// sweepRun is one execution of the real cmd/sweep process.
type sweepRun struct {
	wallS  float64 // spec in → summary table out
	cpuS   float64 // user + system CPU of the sweep process
	rssMB  float64 // peak resident set of the sweep process, in 10⁶ bytes
	jsonl  []byte  // the -no-timing records log
	stdout []byte  // the summary table
}

// runSweep executes cmd/sweep on a spec file with timing stripped from
// the records, so every run of one spec must produce the same bytes.
func runSweep(bin, specPath, outPath string) (sweepRun, error) {
	cmd := exec.Command(filepath.Join(bin, "sweep"), "-spec", specPath,
		"-workers", strconv.Itoa(workers()), "-out", outPath, "-no-timing", "-q")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return sweepRun{}, err
	}
	peak := watchPeakRSS(cmd.Process.Pid)
	err := cmd.Wait()
	wall := time.Since(start)
	rssKiB := peak()
	if err != nil {
		return sweepRun{}, fmt.Errorf("sweep %s: %w\n%s", specPath, err, stderr.Bytes())
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return sweepRun{}, fmt.Errorf("sweep %s: no resource usage on this platform", specPath)
	}
	jsonl, err := os.ReadFile(outPath)
	if err != nil {
		return sweepRun{}, err
	}
	return sweepRun{
		wallS:  wall.Seconds(),
		cpuS:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		rssMB:  float64(rssKiB) * 1024 / 1e6,
		jsonl:  jsonl,
		stdout: stdout.Bytes(),
	}, nil
}

// rssPoll is how often watchPeakRSS samples the child's high-water mark.
const rssPoll = 5 * time.Millisecond

// watchPeakRSS samples the VmHWM line of /proc/PID/status until the
// returned function is called, which stops the sampling and returns the
// largest value seen, in KiB. The wait4 rusage cannot be used: a child
// forked from this process shares its address space until exec, so its
// ru_maxrss includes this process's own peak.
func watchPeakRSS(pid int) func() int64 {
	path := fmt.Sprintf("/proc/%d/status", pid)
	stop := make(chan struct{})
	done := make(chan int64)
	go func() {
		var peak int64
		tick := time.NewTicker(rssPoll)
		defer tick.Stop()
		for {
			peak = max(peak, readHWM(path))
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() int64 {
		close(stop)
		return <-done
	}
}

// readHWM returns the VmHWM value of a /proc status file in KiB, or 0
// once the process is gone.
func readHWM(path string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	_, rest, ok := bytes.Cut(data, []byte("VmHWM:"))
	if !ok {
		return 0
	}
	fields := bytes.Fields(rest) // "1234 kB\n..."
	if len(fields) == 0 {
		return 0
	}
	kib, _ := strconv.ParseInt(string(fields[0]), 10, 64)
	return kib
}
