package dataset

// CSV import/export. The synthetic generators make the repository
// self-contained, but a downstream deployment will have the real UCI/Kaggle
// files; ReadCSV loads them against a declared schema (values outside a
// discrete feature's category list map to the unknown slot, exactly as the
// paper's federation-fixed encoding prescribes), and WriteCSV round-trips
// generated tables for external tooling.

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// CSVOptions controls parsing.
type CSVOptions struct {
	// HasHeader skips (and validates, when non-strict) the first row.
	HasHeader bool
	// PositiveLabel is the string of class 1; any other value is class 0.
	PositiveLabel string
	// TrimSpace trims cells before interpretation.
	TrimSpace bool
	// ClampContinuous clips out-of-domain continuous values into the
	// schema's [Min, Max] instead of failing.
	ClampContinuous bool
}

// ReadCSV parses rows of the form feature1,...,featureN,label against the
// schema. Discrete cells are matched case-insensitively to the category
// list; unmatched values become the unknown category (-1).
func ReadCSV(r io.Reader, schema *Schema, opts CSVOptions) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	// io.Copy lets a bytes or strings reader write itself in one exact
	// allocation, where io.ReadAll would regrow its buffer as it reads.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("dataset: csv: %w", err)
	}
	body := buf.Bytes()
	// Every row's values are carved from one slab sized by maxRecords, so
	// no row reallocates it.
	rows := maxRecords(body, schema.NumFeatures()+1)
	t := &Table{Schema: schema, Instances: make([]Instance, 0, rows)}
	slab := make([]float64, 0, rows*schema.NumFeatures())
	err := readCSV(body, schema, opts, func(vals []float64, label int) {
		at := len(slab)
		slab = append(slab, vals...)
		t.Instances = append(t.Instances, Instance{Values: slab[at:len(slab):len(slab)], Label: label})
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// maxRecords bounds the records body can hold with fields fields each: no
// more than its line count, and no more than its bytes allow, since a
// record takes at least one byte per field (its separators and line end).
func maxRecords(body []byte, fields int) int {
	return min(bytes.Count(body, []byte{'\n'})+1, len(body)/fields+1)
}

// readCSV splits body into records and interprets each data record,
// handing row its feature values (a buffer reused from row to row) and
// its label.
func readCSV(body []byte, schema *Schema, opts CSVOptions, row func(vals []float64, label int)) error {
	cells := newCellReader(schema, opts)
	recs := csvRecords{data: body, fields: schema.NumFeatures() + 1}
	vals := make([]float64, schema.NumFeatures())
	for line := 1; ; line++ {
		rec, err := recs.next()
		if err != nil {
			return fmt.Errorf("dataset: csv line %d: %w", line, err)
		}
		if rec == nil {
			return nil
		}
		if line == 1 && opts.HasHeader {
			continue
		}
		for j := range vals {
			if vals[j], err = cells.value(j, rec[j], line); err != nil {
				return err
			}
		}
		row(vals, cells.label(rec[len(vals)]))
	}
}

// cellReader interprets the cells of a record against a schema: the one
// place a cell's text becomes a feature value or a label.
type cellReader struct {
	schema *Schema
	opts   CSVOptions
	// catIdx[j] maps feature j's lower-cased category names to their
	// index (nil for continuous features).
	catIdx []map[string]int
	pos    []byte
	lower  []byte // scratch for lower-casing ASCII cells
}

func newCellReader(schema *Schema, opts CSVOptions) *cellReader {
	c := &cellReader{
		schema: schema,
		opts:   opts,
		catIdx: make([]map[string]int, schema.NumFeatures()),
		pos:    []byte(opts.PositiveLabel),
	}
	for j, f := range schema.Features {
		if f.Kind != Discrete {
			continue
		}
		m := make(map[string]int, len(f.Categories))
		for ci, cat := range f.Categories {
			m[strings.ToLower(cat)] = ci
		}
		c.catIdx[j] = m
	}
	return c
}

// value returns feature j's value for cell, read from record number line:
// a discrete feature's category index (-1, the unknown slot, when no
// category matches case-insensitively) or a continuous feature's number.
func (c *cellReader) value(j int, cell []byte, line int) (float64, error) {
	if c.opts.TrimSpace {
		cell = bytes.TrimSpace(cell)
	}
	f := &c.schema.Features[j]
	if f.Kind == Discrete {
		if ci, ok := c.category(c.catIdx[j], cell); ok {
			return float64(ci), nil
		}
		return -1, nil
	}
	v, err := strconv.ParseFloat(string(cell), 64)
	if err != nil {
		return 0, fmt.Errorf("dataset: csv line %d, feature %q: %w", line, f.Name, err)
	}
	if v < f.Min || v > f.Max {
		if !c.opts.ClampContinuous {
			return 0, fmt.Errorf("dataset: csv line %d, feature %q: value %v outside [%v,%v]",
				line, f.Name, v, f.Min, f.Max)
		}
		if v < f.Min {
			v = f.Min
		} else {
			v = f.Max
		}
	}
	return v, nil
}

// category looks cell up in m under strings.ToLower. An ASCII cell is
// lower-cased into scratch, so the lookup allocates nothing.
func (c *cellReader) category(m map[string]int, cell []byte) (int, bool) {
	for _, b := range cell {
		if b >= utf8.RuneSelf {
			ci, ok := m[strings.ToLower(string(cell))]
			return ci, ok
		}
	}
	c.lower = append(c.lower[:0], cell...)
	for i, b := range c.lower {
		if 'A' <= b && b <= 'Z' {
			c.lower[i] = b + 'a' - 'A'
		}
	}
	ci, ok := m[string(c.lower)]
	return ci, ok
}

// label returns 1 when cell equals the positive label under Unicode case
// folding, else 0.
func (c *cellReader) label(cell []byte) int {
	if c.opts.TrimSpace {
		cell = bytes.TrimSpace(cell)
	}
	if bytes.EqualFold(cell, c.pos) {
		return 1
	}
	return 0
}

// csvRecords splits CSV bytes into records, accepting and rejecting
// exactly what encoding/csv's Reader does with its defaults (comma
// separator, no comment character, strict quotes) and FieldsPerRecord set
// to fields: quoted fields with "" escapes and embedded newlines, CRLF
// line endings read as LF, blank lines skipped. Unlike the Reader it
// works in place over a byte slice and allocates nothing per record.
type csvRecords struct {
	data   []byte // input not yet consumed
	fields int
	line   int // physical lines consumed
	buf    []byte
	ends   []int
	rec    [][]byte
}

// readLine consumes one physical line and returns it without its line
// ending ("\n" or "\r\n") and whether it had one; ok is false at the end
// of input. A last line without a newline loses one trailing '\r', as
// encoding/csv drops it.
func (s *csvRecords) readLine() (line []byte, nl, ok bool) {
	if len(s.data) == 0 {
		return nil, false, false
	}
	s.line++
	i := bytes.IndexByte(s.data, '\n')
	if i < 0 {
		line, s.data = s.data, nil
	} else {
		line, s.data, nl = s.data[:i], s.data[i+1:], true
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nl, true
}

// next returns the next record's fields, or nil at the end of input. The
// fields are valid until the next call.
func (s *csvRecords) next() ([][]byte, error) {
	var line []byte
	var nl, ok bool
	for len(line) == 0 {
		if line, nl, ok = s.readLine(); !ok {
			return nil, nil
		}
	}
	start := s.line
	// syntax reports err at offset off of line, within the physical line
	// whose content is full.
	full := line
	syntax := func(err error, off int) error {
		return &csv.ParseError{StartLine: start, Line: s.line, Column: len(full) - len(line) + off + 1, Err: err}
	}
	s.buf, s.ends = s.buf[:0], s.ends[:0]
fields:
	for {
		if len(line) == 0 || line[0] != '"' {
			field, rest, more := bytes.Cut(line, []byte{','})
			if j := bytes.IndexByte(field, '"'); j >= 0 {
				return nil, syntax(csv.ErrBareQuote, j)
			}
			s.buf = append(s.buf, field...)
			s.ends = append(s.ends, len(s.buf))
			if !more {
				break
			}
			line = rest
			continue
		}
		line = line[1:]
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				s.buf = append(s.buf, line[:i]...)
				line = line[i+1:]
				switch {
				case len(line) == 0: // closing quote ends the record
					s.ends = append(s.ends, len(s.buf))
					break fields
				case line[0] == '"': // "" is a literal quote
					s.buf = append(s.buf, '"')
					line = line[1:]
				case line[0] == ',':
					s.ends = append(s.ends, len(s.buf))
					line = line[1:]
					continue fields
				default:
					return nil, syntax(csv.ErrQuote, -1)
				}
			case len(line) > 0 || nl: // the field continues on the next line
				s.buf = append(s.buf, line...)
				if nl {
					s.buf = append(s.buf, '\n')
				}
				line, nl, _ = s.readLine()
				full = line
			default: // input ends inside the quotes
				return nil, syntax(csv.ErrQuote, 0)
			}
		}
	}
	if len(s.ends) != s.fields {
		return nil, &csv.ParseError{StartLine: start, Line: start, Column: 1, Err: csv.ErrFieldCount}
	}
	s.rec = s.rec[:0]
	at := 0
	for _, end := range s.ends {
		s.rec = append(s.rec, s.buf[at:end:end])
		at = end
	}
	return s.rec, nil
}

// WriteCSV writes the table with a header row; discrete values are written
// as their category names (unknown as "?"), labels as schema.Labels strings.
func WriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, t.Schema.NumFeatures()+1)
	for _, f := range t.Schema.Features {
		header = append(header, f.Name)
	}
	header = append(header, "label")
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for i, in := range t.Instances {
		for j, f := range t.Schema.Features {
			switch f.Kind {
			case Discrete:
				ci := int(in.Values[j])
				if ci >= 0 && ci < len(f.Categories) {
					rec[j] = f.Categories[ci]
				} else {
					rec[j] = "?"
				}
			case Continuous:
				rec[j] = strconv.FormatFloat(in.Values[j], 'g', -1, 64)
			}
		}
		rec[len(rec)-1] = t.Schema.Labels[in.Label]
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
