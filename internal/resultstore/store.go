// Package resultstore is the queryable on-disk home of sweep results: an
// append-only JSONL data file paired with a sidecar offset index keyed by
// experiment cell (topology × n × k × field × rate × dynamics ×
// generation size × regime), so million-trial sweeps answer "which cell
// regressed, and what are its P99/P99.9 stopping times" by reading only
// that cell's lines — no CSV re-parsing, no full-file scan.
//
// Pure Go, no external database: the index is rebuilt from the data file
// whenever the sidecar is missing or stale (size mismatch), and a torn
// trailing line from a kill mid-append is truncated on open, the same
// recovery contract as the harness checkpoint.
package resultstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"algossip/internal/harness"
	"algossip/internal/jsonl"
	"algossip/internal/stats"
)

// storeVersion guards the on-disk format of both files.
const storeVersion = 1

// Record is one trial's result row: the cell it belongs to, which keys
// the index, and the measurement. The cell's fields are inlined in the
// JSON line.
type Record struct {
	// Spec labels the sweep that produced the row.
	Spec string `json:"spec,omitempty"`
	Cell
	// Trial, Seed and Rounds are the measurement itself.
	Trial  int    `json:"trial"`
	Seed   uint64 `json:"seed"`
	Rounds int    `json:"rounds"`
}

// Cell identifies one experiment grid cell in the index.
type Cell struct {
	// Graph, N, K and Q identify the topology × message-count × field
	// cell.
	Graph string `json:"graph"`
	N     int    `json:"n"`
	K     int    `json:"k"`
	Q     int    `json:"q"`
	// Protocol is the dissemination protocol name.
	Protocol string `json:"protocol"`
	// Rate is the loss/failure rate (0 for lossless).
	Rate float64 `json:"rate,omitempty"`
	// Dynamics is the canonical schedule string ("" for static).
	Dynamics string `json:"dyn,omitempty"`
	// GenSize is the generation size (0 for full-span coding).
	GenSize int `json:"gens,omitempty"`
	// Regime is harness.Spec.Regime: every other trajectory-deciding
	// field (time model, action, selector, single source, sharded
	// semantics, adversary, classes), "" at the defaults — so files
	// written before the field existed keep their cell keys.
	Regime string `json:"regime,omitempty"`
}

// Filter selects cells. Zero-valued fields are wildcards. Dynamics,
// GenSize, Rate and Regime, whose zero values are stored values (a static
// topology, whole-k coding, no loss, the default regime), participate only
// when their Has* field is set. Dynamics matches a cell's schedule string
// ("edge:rate=0.2,period=1") or its kind ("edge").
type Filter struct {
	Spec     string
	Graph    string
	N        int
	K        int
	Q        int
	Protocol string

	Dynamics    string
	HasDynamics bool
	GenSize     int
	HasGenSize  bool
	Rate        float64
	HasRate     bool
	Regime      string
	HasRegime   bool
}

// matches reports whether the filter's non-wildcard fields all equal the
// cell's.
func (f Filter) matches(c Cell) bool {
	kind, _, _ := strings.Cut(c.Dynamics, ":")
	switch {
	case f.Graph != "" && f.Graph != c.Graph,
		f.N != 0 && f.N != c.N,
		f.K != 0 && f.K != c.K,
		f.Q != 0 && f.Q != c.Q,
		f.Protocol != "" && f.Protocol != c.Protocol,
		f.HasDynamics && f.Dynamics != c.Dynamics && f.Dynamics != kind,
		f.HasGenSize && f.GenSize != c.GenSize,
		f.HasRate && f.Rate != c.Rate,
		f.HasRegime && f.Regime != c.Regime:
		return false
	}
	return true
}

// dataHeader is the data file's first line.
type dataHeader struct {
	V int `json:"v"`
}

// idxCell is one cell's entry in the sidecar index.
type idxCell struct {
	Cell    Cell    `json:"cell"`
	Offsets []int64 `json:"offsets"`
}

// idxFile is the sidecar index layout.
type idxFile struct {
	V int `json:"v"`
	// Size is the data-file byte count the index covers; a mismatch on
	// open means the index is stale and the data file is rescanned.
	Size  int64     `json:"size"`
	Cells []idxCell `json:"cells"`
}

// Store is an open result store. All methods are safe for concurrent
// use.
type Store struct {
	mu    sync.Mutex
	path  string
	log   *jsonl.Log // the data file
	cells map[Cell]*idxCell
	order []Cell // insertion order, for deterministic Cells/queries
	dirty bool
}

// Open opens (creating if needed) the store at path and loads or
// rebuilds its index: a sidecar that covers the data file to its last
// byte is taken at its word, anything else is rebuilt by replaying the
// data lines, dropping a torn tail (jsonl's rule).
func Open(path string) (*Store, error) {
	s := &Store{path: path, cells: map[Cell]*idxCell{}}
	replay := s.replay
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		if idx, err := s.loadSidecar(); err == nil && idx.Size == st.Size() {
			for _, c := range idx.Cells {
				s.cells[c.Cell] = &idxCell{Cell: c.Cell, Offsets: c.Offsets}
				s.order = append(s.order, c.Cell)
			}
			replay = nil
		}
	}
	var err error
	// The header carries nothing worth a sync of its own: the first
	// Append's covers it.
	if s.log, err = jsonl.Open(path, dataHeader{V: storeVersion}, false, replay); err != nil {
		return nil, err
	}
	s.dirty = replay != nil
	return s, nil
}

// replay checks the data file's header and indexes one of its records.
func (s *Store) replay(off int64, line []byte) error {
	if off == 0 {
		var h dataHeader
		if err := json.Unmarshal(line, &h); err != nil {
			return fmt.Errorf("resultstore: corrupt header in %s: %w", s.path, err)
		}
		if h.V != storeVersion {
			return fmt.Errorf("resultstore: %s has version %d, want %d", s.path, h.V, storeVersion)
		}
		return nil
	}
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return err
	}
	s.indexLocked(r, off)
	return nil
}

func (s *Store) loadSidecar() (*idxFile, error) {
	data, err := os.ReadFile(s.path + ".idx")
	if err != nil {
		return nil, err
	}
	var idx idxFile
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil, err
	}
	if idx.V != storeVersion {
		return nil, fmt.Errorf("resultstore: index version %d, want %d", idx.V, storeVersion)
	}
	return &idx, nil
}

// indexLocked adds one record's offset to the in-memory index.
func (s *Store) indexLocked(r Record, offset int64) {
	c := r.Cell
	ic, ok := s.cells[c]
	if !ok {
		ic = &idxCell{Cell: c}
		s.cells[c] = ic
		s.order = append(s.order, c)
	}
	ic.Offsets = append(ic.Offsets, offset)
}

// Append durably adds records to the store and indexes them: one write
// and one sync for the whole call.
func (s *Store) Append(recs ...Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lines := make([]any, len(recs))
	for i := range recs {
		lines[i] = &recs[i]
	}
	offs, err := s.log.Append(lines...)
	if err != nil {
		return err
	}
	for i, off := range offs {
		s.indexLocked(recs[i], off)
	}
	s.dirty = true
	return nil
}

// Cells lists every indexed cell with its trial count, in first-seen
// order.
func (s *Store) Cells() []CellCount {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CellCount, 0, len(s.order))
	for _, c := range s.order {
		out = append(out, CellCount{Cell: c, Trials: len(s.cells[c].Offsets)})
	}
	return out
}

// CellCount pairs a cell with its stored trial count.
type CellCount struct {
	Cell   Cell
	Trials int
}

// Query reads every record of every cell the filter matches, in stable
// (cell first-seen, then append) order, touching only the matched
// offsets. The Spec filter field applies per record (it is not part of
// the cell key).
func (s *Store) Query(f Filter) ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var offsets []int64
	for _, c := range s.order {
		if f.matches(c) {
			offsets = append(offsets, s.cells[c].Offsets...)
		}
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	out := make([]Record, 0, len(offsets))
	rd := bufio.NewReader(nil)
	for _, off := range offsets {
		rd.Reset(io.NewSectionReader(s.log, off, s.log.Size()-off))
		line, err := rd.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, err
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("resultstore: corrupt record at offset %d of %s: %w", off, s.path, err)
		}
		if f.Spec != "" && f.Spec != r.Spec {
			continue
		}
		out = append(out, r)
	}
	return out, nil
}

// TailStats summarizes the stopping times of one query: count, mean, and
// the tail quantiles the paper's bounds only hint at. Empty matches
// yield NaN statistics (see stats.Mean).
type TailStats struct {
	Trials int
	Mean   float64
	P50    float64
	P90    float64
	P99    float64
	P999   float64
	Max    float64
}

// Tail computes TailStats over the rounds of every record the filter
// matches.
func (s *Store) Tail(f Filter) (TailStats, error) {
	recs, err := s.Query(f)
	if err != nil {
		return TailStats{}, err
	}
	xs := make([]float64, 0, len(recs))
	for _, r := range recs {
		xs = append(xs, float64(r.Rounds))
	}
	qs := stats.TailQuantiles(xs, 0.5, 0.9, 0.99, 0.999, 1)
	return TailStats{
		Trials: len(xs), Mean: stats.Mean(xs),
		P50: qs[0], P90: qs[1], P99: qs[2], P999: qs[3], Max: qs[4],
	}, nil
}

// String renders the tail stats compactly.
func (t TailStats) String() string {
	return fmt.Sprintf("trials=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f p99.9=%.1f max=%.0f",
		t.Trials, t.Mean, t.P50, t.P90, t.P99, t.P999, t.Max)
}

// Flush rewrites the sidecar index if the store changed since the last
// flush. The data file itself is already durable (synced per Append);
// losing the sidecar only costs a rescan on the next Open.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if !s.dirty {
		return nil
	}
	idx := idxFile{V: storeVersion, Size: s.log.Size()}
	for _, c := range s.order {
		idx.Cells = append(idx.Cells, *s.cells[c])
	}
	data, err := json.Marshal(idx)
	if err != nil {
		return err
	}
	tmp := s.path + ".idx.tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.path+".idx"); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// Close flushes the index and closes the data file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ferr := s.flushLocked()
	cerr := s.log.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// FromResultSet converts a finished harness run into store records — the
// ingest path shared by cmd/sweep (-store) and the fabric coordinator.
func FromResultSet(rs *harness.ResultSet) []Record {
	// The field the trials ran over: the spec's, through the one default.
	q := harness.GossipSpec{Q: rs.Spec.Q}.Normalize().Q
	dyn := ""
	if !rs.Spec.Dynamics.IsStatic() {
		dyn = rs.Spec.Dynamics.String()
	}
	regime := rs.Spec.Regime()
	out := make([]Record, 0, len(rs.Trials))
	for i, t := range rs.Trials {
		// Cells key on the family name ("ring"), not the generator label
		// ("ring-64"): N is its own field, so the family is the natural
		// query axis. Pre-built exotic graphs keep their full label.
		family := rs.Spec.Graph
		if family == "" {
			family = t.Graph.Name()
		}
		out = append(out, Record{
			Spec: rs.Spec.Name,
			Cell: Cell{Graph: family, N: t.Graph.N(), K: t.K, Q: q,
				Protocol: rs.Spec.Protocol.String(), Rate: rs.Spec.LossRate, Dynamics: dyn,
				GenSize: rs.Spec.GenSize, Regime: regime},
			Trial: t.Num, Seed: t.Seed, Rounds: rs.Outcomes[i].Result.Rounds,
		})
	}
	return out
}
