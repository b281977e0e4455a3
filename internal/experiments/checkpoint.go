package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"tends/internal/journal"
)

// CellKey identifies one (figure, point, algorithm) cell across runs. The
// point is keyed by index, not label, so resume stays exact even if two
// points share a label; the label is cross-checked on restore.
type CellKey struct {
	Figure     string
	PointIndex int
	Algorithm  Algorithm
}

// JournalHeader is the first record of a checkpoint journal. A resumed run
// must match the header's seed and repeats, otherwise restored cells would
// be silently inconsistent with freshly computed ones.
type JournalHeader struct {
	Seed    int64 `json:"seed"`
	Repeats int   `json:"repeats"`
}

// journalCell is one completed (point, algorithm) cell, serialized as a
// JSON record. Floats round-trip exactly through encoding/json (shortest
// representation), so a restored cell reproduces the original report bytes.
type journalCell struct {
	Figure        string  `json:"figure"`
	PointIndex    int     `json:"point_index"`
	Point         string  `json:"point"`
	Algorithm     string  `json:"algorithm"`
	F             float64 `json:"f"`
	FStd          float64 `json:"f_std"`
	Precision     float64 `json:"precision"`
	Recall        float64 `json:"recall"`
	RuntimeNS     int64   `json:"runtime_ns"`
	Completed     int     `json:"completed"`
	FailedRepeats int     `json:"failed_repeats"`
	DegradedNodes int     `json:"degraded_nodes,omitempty"`
	Error         string  `json:"error,omitempty"`
	// Scenario identity (see Measurement); omitempty keeps clean-IC records
	// compact, and WriteCSV re-normalizes the empty values on output.
	Model     string  `json:"model,omitempty"`
	Delay     string  `json:"delay,omitempty"`
	Missing   float64 `json:"missing,omitempty"`
	Uncertain float64 `json:"uncertain,omitempty"`
	// Phase breakdown (see Measurement); omitempty keeps records from runs
	// without timings compact.
	WorkloadNS int64 `json:"workload_ns,omitempty"`
	InferNS    int64 `json:"infer_ns,omitempty"`
	MetricsNS  int64 `json:"metrics_ns,omitempty"`
}

// checkpointTag is the journal format tag of checkpoint journals.
const checkpointTag = "ckpt"

// ErrJournalCorrupt reports checkpoint or shard journal damage a load
// refuses: any damage in strict mode, and records that pass the checksum
// but do not decode. It is journal.ErrCorrupt, so errors.Is matches either.
var ErrJournalCorrupt = journal.ErrCorrupt

// Journal appends completed-cell records to a checkpoint journal
// (internal/journal, tag "ckpt"): a JournalHeader record, then one
// journalCell record per completed cell, each JSON. Appends are safe for
// concurrent use and reach the file before Append returns, so a run killed
// mid-sweep loses at most the cells still in flight.
type Journal struct {
	w *journal.Writer
}

// NewJournal starts a fresh checkpoint journal at path by writing its
// header.
func NewJournal(path string, seed int64, repeats int) (*Journal, error) {
	w, err := journal.Create(path, checkpointTag)
	if err != nil {
		return nil, err
	}
	j := &Journal{w: w}
	if err := appendJSON(j.w, JournalHeader{Seed: seed, Repeats: repeats}); err != nil {
		w.Close()
		return nil, fmt.Errorf("write header: %w", err)
	}
	return j, nil
}

// OpenJournal reopens the checkpoint journal at path to resume a run. It
// restores the header and every intact cell (a later record for the same
// cell wins) and returns the journal positioned to append after the last
// intact record. Damage — a torn tail from a kill, or mid-file corruption —
// is truncated away and described by the returned warning, so the cells it
// held are recomputed and appends never land on a partial record. In
// strict mode damage is instead an error wrapping ErrJournalCorrupt and
// the file is untouched. A record that passes its checksum but does not
// decode, or a missing header, is an error in either mode.
func OpenJournal(path string, strict bool) (*Journal, *JournalHeader, map[CellKey]Measurement, *journal.Warning, error) {
	var header *JournalHeader
	cells := make(map[CellKey]Measurement)
	w, warn, err := journal.Open(path, checkpointTag, strict, func(rec []byte) error {
		if header == nil {
			header = new(JournalHeader)
			if err := decodeRecord(rec, header); err != nil {
				return fmt.Errorf("checkpoint header: %w", err)
			}
			return nil
		}
		var c journalCell
		if err := decodeRecord(rec, &c); err != nil {
			return fmt.Errorf("checkpoint cell: %w", err)
		}
		if c.PointIndex < 0 || c.Figure == "" || c.Algorithm == "" {
			return fmt.Errorf("%w: checkpoint cell with invalid identity", ErrJournalCorrupt)
		}
		m := c.measurement()
		cells[CellKey{Figure: c.Figure, PointIndex: c.PointIndex, Algorithm: m.Algorithm}] = m
		return nil
	})
	if err != nil {
		return nil, nil, nil, warn, err
	}
	if header == nil {
		w.Close()
		return nil, nil, nil, warn, fmt.Errorf("%w: checkpoint journal has no header record", ErrJournalCorrupt)
	}
	return &Journal{w: w}, header, cells, warn, nil
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	if err := j.w.Sync(); err != nil {
		j.w.Close()
		return err
	}
	return j.w.Close()
}

// Append records one completed cell. pointIndex is the cell's position in
// its figure's sweep, the resume key alongside the measurement's own
// figure/algorithm identity.
func (j *Journal) Append(pointIndex int, m Measurement) error {
	rec := journalCell{
		Figure:        m.Figure,
		PointIndex:    pointIndex,
		Point:         m.Point,
		Algorithm:     string(m.Algorithm),
		F:             m.F,
		FStd:          m.FStd,
		Precision:     m.Precision,
		Recall:        m.Recall,
		RuntimeNS:     int64(m.Runtime),
		Completed:     m.Completed,
		FailedRepeats: m.FailedRepeats,
		DegradedNodes: m.DegradedNodes,
		WorkloadNS:    int64(m.PhaseWorkload),
		InferNS:       int64(m.PhaseInfer),
		MetricsNS:     int64(m.PhaseMetrics),
		Model:         m.Model,
		Delay:         m.Delay,
		Missing:       m.Missing,
		Uncertain:     m.Uncertain,
	}
	// Clean-IC cells leave the scenario fields empty.
	if rec.Model == "ic" {
		rec.Model = ""
	}
	if rec.Delay == "exp" {
		rec.Delay = ""
	}
	if m.Err != nil {
		rec.Error = m.Err.Error()
	}
	return appendJSON(j.w, rec)
}

// decodeRecord unmarshals one JSON journal record into v. Unknown fields
// are refused, so a record of one kind never decodes as another.
func decodeRecord(rec []byte, v any) error {
	d := json.NewDecoder(bytes.NewReader(rec))
	d.DisallowUnknownFields()
	if err := d.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrJournalCorrupt, err)
	}
	return nil
}

// appendJSON appends rec to w as one JSON record.
func appendJSON(w *journal.Writer, rec any) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return w.Append(b)
}

// measurement restores the Measurement a cell record was written from.
func (c *journalCell) measurement() Measurement {
	m := Measurement{
		Figure:        c.Figure,
		Point:         c.Point,
		Algorithm:     Algorithm(c.Algorithm),
		F:             c.F,
		FStd:          c.FStd,
		Precision:     c.Precision,
		Recall:        c.Recall,
		Runtime:       time.Duration(c.RuntimeNS),
		Completed:     c.Completed,
		FailedRepeats: c.FailedRepeats,
		DegradedNodes: c.DegradedNodes,
		PhaseWorkload: time.Duration(c.WorkloadNS),
		PhaseInfer:    time.Duration(c.InferNS),
		PhaseMetrics:  time.Duration(c.MetricsNS),
		Model:         c.Model,
		Delay:         c.Delay,
		Missing:       c.Missing,
		Uncertain:     c.Uncertain,
	}
	if m.Model == "" {
		m.Model = "ic"
	}
	if m.Delay == "" {
		m.Delay = "exp"
	}
	if c.Error != "" {
		m.Err = errors.New(c.Error)
	}
	return m
}
