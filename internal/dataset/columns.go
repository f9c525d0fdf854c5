package dataset

// Columns is a batch of encoded rows held as predicate bit columns, the
// form the compiled rule evaluator reads. Rows are grouped in blocks of
// 64: word b*Width+p holds predicate p of rows 64b … 64b+63, row r at bit
// r%64. Predicate p's column is thus ⌈Len/64⌉ words, one per block, and
// every bit past the last row is zero.
type Columns struct {
	Width  int
	Words  []uint64
	Labels []int
}

// Len returns the number of rows.
func (c *Columns) Len() int { return len(c.Labels) }

// newColumns returns an empty batch with room for rows rows.
func (e *Encoder) newColumns(rows int) *Columns {
	return &Columns{
		Width:  e.width,
		Words:  make([]uint64, 0, (rows+63)/64*e.width),
		Labels: make([]int, 0, rows),
	}
}

// addRow appends a row labeled label and returns its word block and bit.
func (c *Columns) addRow(label int) (blk []uint64, bit uint64) {
	r := len(c.Labels)
	if r%64 == 0 {
		c.Words = append(c.Words, make([]uint64, c.Width)...)
	}
	c.Labels = append(c.Labels, label)
	b := r / 64
	return c.Words[b*c.Width : (b+1)*c.Width], 1 << (r % 64)
}

// putValue sets, at bit of its row's word block blk, the predicates of
// feature j that value v makes true: exactly the entries Encode sets to 1.
func (e *Encoder) putValue(blk []uint64, bit uint64, j int, v float64) {
	f := &e.schema.Features[j]
	off := e.offsets[j]
	switch f.Kind {
	case Discrete:
		c := int(v)
		if c >= 0 && c < len(f.Categories) {
			blk[off+c] |= bit
		} else {
			blk[off+len(f.Categories)] |= bit // unknown slot
		}
	case Continuous:
		lo, hi := e.lower[j], e.upper[j]
		for k := 0; k < e.tauD; k++ {
			if v > lo[k] {
				blk[off+k] |= bit
			}
			if v < hi[k] {
				blk[off+e.tauD+k] |= bit
			}
		}
	}
}

// EncodeColumns encodes every instance of t into predicate columns, with
// the same bits as EncodeTable's rows.
func (e *Encoder) EncodeColumns(t *Table) *Columns {
	c := e.newColumns(t.Len())
	for _, in := range t.Instances {
		blk, bit := c.addRow(in.Label)
		for j := range e.schema.Features {
			e.putValue(blk, bit, j, in.Values[j])
		}
	}
	return c
}

// ReadCSVColumns parses CSV body straight into predicate columns, with no
// Table in between: it accepts and rejects exactly what ReadCSV does
// against the encoder's schema, and its bits and labels equal
// EncodeColumns of ReadCSV's table.
func (e *Encoder) ReadCSVColumns(body []byte, opts CSVOptions) (*Columns, error) {
	c := e.newColumns(maxRecords(body, e.schema.NumFeatures()+1))
	err := readCSV(body, e.schema, opts, func(vals []float64, label int) {
		blk, bit := c.addRow(label)
		for j, v := range vals {
			e.putValue(blk, bit, j, v)
		}
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}
