// Package jsonl is the append-only log under the sweep stack's two
// durable files, the harness checkpoint and the result store's data file:
// a header line, then one JSON value per '\n'-terminated line. It owns the
// replay on open, the torn-tail rule and the one write and one sync an
// append is; each owner keeps only what its lines mean.
//
// The torn-tail rule: a process killed mid-append leaves a last line that
// lacks its newline or does not parse. Open keeps every line before the
// first such line and truncates the file there, so appends stay
// line-aligned whatever the kill left. A complete header line its owner
// rejects is someone else's file: Open fails and leaves it alone.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
)

// Log is an open log file. It is not safe for concurrent use; its owners
// serialize on their own locks.
type Log struct {
	f    *os.File
	size int64 // end of the last good line: where the next append lands
	buf  []byte
	offs []int64
}

// Open opens the log at path, creating it if missing, and replays it:
// every complete line, the header first, goes to replay with its byte
// offset and without its newline. An error from replay fails Open on the
// header line (offset 0) and marks the torn tail on any later one. A nil
// replay takes the file as it stands, for an owner that already knows
// what it holds. A file left empty — new, or torn inside its first line —
// gets header written, and synced when syncHeader is set.
func Open(path string, header any, syncHeader bool, replay func(off int64, line []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f}
	if err = l.recover(replay); err == nil && l.size == 0 {
		err = l.write(syncHeader, header)
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return l, nil
}

// recover sets size to the end of the last good line and drops the rest.
func (l *Log) recover(replay func(off int64, line []byte) error) error {
	st, err := l.f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	if replay == nil {
		l.size = st.Size()
		return nil
	}
	sc := bufio.NewScanner(l.f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	// bufio.ScanLines with the newline left on, so a last line that lacks
	// it shows.
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i+1], nil
		}
		if atEOF && len(data) > 0 {
			return len(data), data, nil
		}
		return 0, nil, nil
	})
	for sc.Scan() {
		line := sc.Bytes()
		if line[len(line)-1] != '\n' {
			break
		}
		if err := replay(l.size, line[:len(line)-1]); err != nil {
			if l.size == 0 {
				return err
			}
			break
		}
		l.size += int64(len(line))
	}
	if err := sc.Err(); err != nil || l.size == st.Size() {
		return err
	}
	return l.f.Truncate(l.size)
}

// Append marshals each value onto its own line, writes all of them with
// one write and syncs once, so a kill loses at most the call in flight. It
// returns the byte offset of each value's line, in a slice the next call
// reuses. A value that does not marshal fails the call with nothing
// written.
func (l *Log) Append(values ...any) ([]int64, error) {
	err := l.write(true, values...)
	return l.offs, err
}

func (l *Log) write(sync bool, values ...any) error {
	l.buf, l.offs = l.buf[:0], l.offs[:0]
	for _, v := range values {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		l.offs = append(l.offs, l.size+int64(len(l.buf)))
		l.buf = append(append(l.buf, data...), '\n')
	}
	// Positioned: a failed write leaves nothing a retry would land after,
	// and ReadAt never moves the append point.
	if _, err := l.f.WriteAt(l.buf, l.size); err != nil {
		return err
	}
	l.size += int64(len(l.buf))
	if !sync {
		return nil
	}
	return l.f.Sync()
}

// Size is the log's length in bytes: the offset the next line will get.
func (l *Log) Size() int64 { return l.size }

// ReadAt reads the file's bytes (io.ReaderAt), for an owner that indexed
// the offsets replay and Append gave it.
func (l *Log) ReadAt(p []byte, off int64) (int, error) { return l.f.ReadAt(p, off) }

// Close closes the file.
func (l *Log) Close() error { return l.f.Close() }
