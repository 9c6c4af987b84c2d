package shard

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"popgraph/internal/results"
)

// Writer streams one shard's records to a JSONL file in ascending cell
// order, checkpointing a manifest after every flushed record. Opening a
// writer whose manifest already exists resumes it: the records file is
// truncated back to the checkpointed line count (repairing a torn final
// line from a kill) and Append continues after the completed prefix.
//
// The write order per record is line-then-manifest, so the manifest
// never claims a cell whose line is missing; a kill between the two
// leaves one orphan line that the next resume truncates away and
// recomputes, which is idempotent because cells are deterministic.
type Writer struct {
	out          *os.File
	buf          *bufio.Writer
	enc          *results.Encoder // writes into buf
	manifest     Manifest
	manifestPath string // "" disables checkpointing
}

// Open creates or resumes a shard writer. base describes the shard
// (spec hash, shard/of, grid total, records path, timing mode) and must
// carry an empty Completed list; outPath is the records file the base's
// Records field names. When manifestPath is empty, checkpointing is off
// and the records file is always started fresh. The returned count is
// the number of already-completed cells to skip — 0 for a fresh run.
func Open(outPath, manifestPath string, base Manifest) (*Writer, int, error) {
	if len(base.Completed) != 0 {
		return nil, 0, fmt.Errorf("shard: Open with non-empty completed list")
	}
	if err := base.Validate(); err != nil {
		return nil, 0, err
	}
	w := &Writer{manifest: base, manifestPath: manifestPath}
	if manifestPath != "" {
		if prev, err := ReadManifest(manifestPath); err == nil {
			return w.resume(outPath, prev)
		} else if !os.IsNotExist(err) {
			return nil, 0, err
		}
	}
	out, err := os.Create(outPath)
	if err != nil {
		return nil, 0, err
	}
	w.setOutput(out)
	if manifestPath != "" {
		// Checkpoint the empty state up front so a kill before the first
		// cell still leaves a resumable manifest.
		if err := WriteManifest(manifestPath, w.manifest); err != nil {
			out.Close()
			return nil, 0, err
		}
	}
	return w, 0, nil
}

// setOutput directs the writer's records into out.
func (w *Writer) setOutput(out *os.File) {
	w.out = out
	w.buf = bufio.NewWriter(out)
	w.enc = results.NewEncoder(w.buf)
}

// resume validates the previous checkpoint against the requested run and
// reopens the records file truncated to the checkpointed prefix.
func (w *Writer) resume(outPath string, prev Manifest) (*Writer, int, error) {
	base := w.manifest
	switch {
	case prev.SpecHash != base.SpecHash:
		return nil, 0, fmt.Errorf("shard: checkpoint belongs to a different sweep (spec hash %.12s… vs %.12s…)",
			prev.SpecHash, base.SpecHash)
	case prev.Shard != base.Shard || prev.Of != base.Of:
		return nil, 0, fmt.Errorf("shard: checkpoint is for shard %d/%d, this run is %d/%d",
			prev.Shard, prev.Of, base.Shard, base.Of)
	case prev.TotalCells != base.TotalCells:
		return nil, 0, fmt.Errorf("shard: checkpoint grid has %d cells, this run %d",
			prev.TotalCells, base.TotalCells)
	case prev.NoTiming != base.NoTiming:
		return nil, 0, fmt.Errorf("shard: checkpoint no_timing=%v, this run %v (mixing would break byte-identity)",
			prev.NoTiming, base.NoTiming)
	case prev.Records != base.Records:
		return nil, 0, fmt.Errorf("shard: checkpoint records file %q, this run writes %q",
			prev.Records, base.Records)
	}
	end, err := prefixEnd(outPath, len(prev.Completed))
	if err != nil {
		return nil, 0, fmt.Errorf("shard: resuming %s: %w", outPath, err)
	}
	out, err := os.OpenFile(outPath, os.O_WRONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	if err := out.Truncate(end); err != nil {
		out.Close()
		return nil, 0, err
	}
	if _, err := out.Seek(end, io.SeekStart); err != nil {
		out.Close()
		return nil, 0, err
	}
	w.setOutput(out)
	w.manifest = prev
	return w, len(prev.Completed), nil
}

// prefixEnd returns the byte offset just past the n-th newline of path —
// the end of its first n complete lines.
func prefixEnd(path string, n int) (int64, error) {
	if n == 0 {
		return 0, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var off int64
	lines := 0
	buf := make([]byte, 64*1024)
	for lines < n {
		k, err := f.Read(buf)
		for _, b := range buf[:k] {
			off++
			if b == '\n' {
				lines++
				if lines == n {
					return off, nil
				}
			}
		}
		if err == io.EOF {
			return 0, fmt.Errorf("records file has %d complete lines, checkpoint claims %d", lines, n)
		}
		if err != nil {
			return 0, err
		}
	}
	return off, nil
}

// Append writes one cell's record line and checkpoints it. Cells must
// arrive in ascending global order, continuing the completed prefix.
func (w *Writer) Append(global int, rec results.Record) error {
	if n := len(w.manifest.Completed); n > 0 && global <= w.manifest.Completed[n-1] {
		return fmt.Errorf("shard: cell %d appended after cell %d", global, w.manifest.Completed[n-1])
	}
	if w.manifest.NoTiming {
		rec.ElapsedNs, rec.QueueWaitNs = 0, 0
	}
	// One Encode is one whole-line write into buf, the same bytes
	// results.Write produces, so shard files concatenate into a
	// byte-identical solo log.
	if err := w.enc.Encode(&rec); err != nil {
		return fmt.Errorf("shard: encoding record: %w", err)
	}
	// The line must be durable in the file before the manifest claims
	// it; buffering exists only to batch the syscalls within one line.
	if err := w.buf.Flush(); err != nil {
		return err
	}
	w.manifest.Completed = append(w.manifest.Completed, global)
	if w.manifestPath != "" {
		return WriteManifest(w.manifestPath, w.manifest)
	}
	return nil
}

// Done returns the number of cells flushed so far (including any
// resumed prefix).
func (w *Writer) Done() int { return len(w.manifest.Completed) }

// Close flushes and closes the records file. The manifest was already
// checkpointed per cell, so Close adds nothing to it.
func (w *Writer) Close() error {
	if err := w.buf.Flush(); err != nil {
		w.out.Close()
		return err
	}
	return w.out.Close()
}
