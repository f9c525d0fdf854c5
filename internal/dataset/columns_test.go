package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// refReadCSV reads records with encoding/csv's Reader and interprets their
// cells as ReadCSV specifies: the reference the package's own record
// splitter is checked against.
func refReadCSV(r io.Reader, schema *Schema, opts CSVOptions) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = schema.NumFeatures() + 1
	t := &Table{Schema: schema}
	catIdx := make([]map[string]int, schema.NumFeatures())
	for j, f := range schema.Features {
		if f.Kind != Discrete {
			continue
		}
		m := make(map[string]int, len(f.Categories))
		for ci, c := range f.Categories {
			m[strings.ToLower(c)] = ci
		}
		catIdx[j] = m
	}
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csv line %d: %w", line+1, err)
		}
		line++
		if line == 1 && opts.HasHeader {
			continue
		}
		vals := make([]float64, schema.NumFeatures())
		for j, f := range schema.Features {
			cell := rec[j]
			if opts.TrimSpace {
				cell = strings.TrimSpace(cell)
			}
			switch f.Kind {
			case Discrete:
				if ci, ok := catIdx[j][strings.ToLower(cell)]; ok {
					vals[j] = float64(ci)
				} else {
					vals[j] = -1
				}
			case Continuous:
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, err
				}
				if v < f.Min || v > f.Max {
					if !opts.ClampContinuous {
						return nil, fmt.Errorf("value %v outside [%v,%v]", v, f.Min, f.Max)
					}
					v = math.Max(f.Min, math.Min(f.Max, v))
				}
				vals[j] = v
			}
		}
		labelCell := rec[schema.NumFeatures()]
		if opts.TrimSpace {
			labelCell = strings.TrimSpace(labelCell)
		}
		label := 0
		if strings.EqualFold(labelCell, opts.PositiveLabel) {
			label = 1
		}
		t.Instances = append(t.Instances, Instance{Values: vals, Label: label})
	}
	return t, nil
}

// fuzzSchema has an upper-case and a non-ASCII category, so case folding
// is exercised beyond ASCII.
func fuzzSchema() *Schema {
	return &Schema{
		Name:   "fuzz",
		Labels: [2]string{"no", "Ja"},
		Features: []Feature{
			{Name: "color", Kind: Discrete, Categories: []string{"red", "Blue", "grün"}},
			{Name: "temp", Kind: Continuous, Min: -10, Max: 100},
			{Name: "size", Kind: Discrete, Categories: []string{"S", "M"}},
		},
	}
}

// FuzzReadCSVColumns checks the one-pass parser against encoding/csv plus
// Encode: the same accept/reject, and on acceptance the same predicate
// bits and labels. ReadCSV, on the same splitter, must agree too.
func FuzzReadCSVColumns(f *testing.F) {
	for _, seed := range []string{
		"color,temp,size,label\nred,20.5,S,ja\nBLUE, 77 ,m,no\ngreen,50,L,JA\n",
		"color,temp,size,label\r\nred,1,S,ja\r\n\r\nblue,2,M,no\r\n",
		"\"color\",\"temp\",size,label\n\"red\",\"3\",\"S\",\"ja\"\n\"bl\"\"ue\",4,M,no\n",
		"c,t,s,l\n\"multi\nline\",5,S,ja\n\"cr\r\nlf\",6,M,no",
		"c,t,s,l\n\n\nred,7,S,ja\n\n",
		"c,t,s,l\nred,8,S\n",
		"c,t,s,l\nred,8,S,ja,extra\n",
		"c,t,s,l\nGRÜN,9,s,JA\nGrün,10,M,ja\n",
		"c,t,s,l\nred,NaN,S,ja\nred,+Inf,S,no\nred,-Inf,M,ja\nred,1e400,S,no\n",
		"c,t,s,l\nred,-50,S,ja\nred,500,M,no\nred,abc,S,ja\n",
		"color,temp,size,label\n",
		"color,temp,size,label",
		"",
		"c,t,s,l\nred,1,S,ja\r",
		"c,t,s,l\nre\"d,1,S,ja\n",
		"c,t,s,l\n\"red\"x,1,S,ja\n",
		"c,t,s,l\n\"red,1,S,ja\n",
		"c,t,s,l\n red , 0x1p-2 , S , ja \n",
	} {
		for opts := byte(0); opts < 8; opts += 3 {
			f.Add([]byte(seed), opts)
		}
	}
	schema := fuzzSchema()
	enc, err := NewEncoder(schema, 3, stats.NewRNG(5))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte, flags byte) {
		opts := CSVOptions{
			HasHeader:       flags&1 != 0,
			TrimSpace:       flags&2 != 0,
			ClampContinuous: flags&4 != 0,
			PositiveLabel:   schema.Labels[1],
		}
		orig := append([]byte(nil), body...)
		want, wantErr := refReadCSV(bytes.NewReader(body), schema, opts)
		got, err := enc.ReadCSVColumns(body, opts)
		tab, tabErr := ReadCSV(bytes.NewReader(body), schema, opts)
		if !bytes.Equal(body, orig) {
			t.Fatal("parsing modified its input")
		}
		if (err != nil) != (wantErr != nil) || (tabErr != nil) != (wantErr != nil) {
			t.Fatalf("ReadCSVColumns err %v, ReadCSV err %v, encoding/csv err %v", err, tabErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if got.Len() != want.Len() || tab.Len() != want.Len() {
			t.Fatalf("rows: columns %d, ReadCSV %d, want %d", got.Len(), tab.Len(), want.Len())
		}
		for r, in := range want.Instances {
			if got.Labels[r] != in.Label || tab.Instances[r].Label != in.Label {
				t.Fatalf("row %d label: columns %d, ReadCSV %d, want %d", r, got.Labels[r], tab.Instances[r].Label, in.Label)
			}
			for j, v := range in.Values {
				if math.Float64bits(tab.Instances[r].Values[j]) != math.Float64bits(v) {
					t.Fatalf("row %d feature %d: ReadCSV %v, want %v", r, j, tab.Instances[r].Values[j], v)
				}
			}
			blk := got.Words[r/64*got.Width:]
			for p, v := range enc.Encode(in, nil) {
				if float64(blk[p]>>(r%64)&1) != v {
					t.Fatalf("row %d predicate %d: bit %d, Encode %v", r, p, blk[p]>>(r%64)&1, v)
				}
			}
		}
		if ref := enc.EncodeColumns(want); !reflect.DeepEqual(ref.Words, got.Words) && len(ref.Words)+len(got.Words) > 0 {
			t.Fatalf("words differ from EncodeColumns (padding bits included)")
		}
	})
}

// TestEncodeColumnsMatchesEncode pins the column layout on a table that
// spans several 64-row blocks and ends mid-block.
func TestEncodeColumnsMatchesEncode(t *testing.T) {
	tab := Adult(stats.NewRNG(2), 150)
	enc, err := NewEncoder(tab.Schema, 6, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	c := enc.EncodeColumns(tab)
	if c.Len() != 150 || c.Width != enc.Width() || len(c.Words) != 3*enc.Width() {
		t.Fatalf("shape: %d rows, width %d, %d words", c.Len(), c.Width, len(c.Words))
	}
	for r, in := range tab.Instances {
		if c.Labels[r] != in.Label {
			t.Fatalf("row %d label %d, want %d", r, c.Labels[r], in.Label)
		}
		for p, v := range enc.Encode(in, nil) {
			if float64(c.Words[r/64*c.Width+p]>>(r%64)&1) != v {
				t.Fatalf("row %d predicate %d differs from Encode", r, p)
			}
		}
	}
	for p := 0; p < c.Width; p++ {
		if pad := c.Words[2*c.Width+p] >> (150 - 128); pad != 0 {
			t.Fatalf("predicate %d has bits past the last row: %#x", p, pad)
		}
	}
}
