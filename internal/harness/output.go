package harness

import (
	"encoding/csv"
	"io"
	"strconv"
)

// csvHeader is the sweep CSV schema, stable since the pre-harness
// cmd/sweep (downstream plotting scripts key on it).
var csvHeader = []string{"graph", "protocol", "model", "n", "k", "trial", "rounds"}

// WriteCSV renders the result set as the canonical sweep CSV, one row
// per trial in work-list order. The bytes are a pure function of
// (Spec, seed): identical for any worker count and any resume history.
func WriteCSV(w io.Writer, rs *ResultSet) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for i, t := range rs.Trials {
		rec := []string{
			t.Graph.Name(), rs.Spec.Protocol.String(), rs.Spec.Model.String(),
			strconv.Itoa(t.Graph.N()), strconv.Itoa(t.K), strconv.Itoa(t.Num),
			strconv.Itoa(rs.Outcomes[i].Result.Rounds),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FailFastWriter wraps a writer and latches the first error, so command
// mains that print many lines can check once at the end and still exit
// non-zero on a broken pipe or full disk.
type FailFastWriter struct {
	w   io.Writer
	err error
}

// NewFailFastWriter wraps w.
func NewFailFastWriter(w io.Writer) *FailFastWriter {
	return &FailFastWriter{w: w}
}

// Write forwards to the underlying writer until the first error, after
// which it keeps failing without writing.
func (f *FailFastWriter) Write(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	n, err := f.w.Write(p)
	if err != nil {
		f.err = err
	}
	return n, err
}

// Err returns the first write error, if any.
func (f *FailFastWriter) Err() error { return f.err }
