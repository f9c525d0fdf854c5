package dataset

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stats"
)

func csvSchema() *Schema {
	return &Schema{
		Name:   "csv",
		Labels: [2]string{"no", "yes"},
		Features: []Feature{
			{Name: "color", Kind: Discrete, Categories: []string{"red", "blue"}},
			{Name: "temp", Kind: Continuous, Min: 0, Max: 100},
		},
	}
}

func TestReadCSVBasic(t *testing.T) {
	in := "color,temp,label\nred,20.5,yes\nBLUE, 77 ,no\ngreen,50,yes\n"
	tab, err := ReadCSV(strings.NewReader(in), csvSchema(), CSVOptions{
		HasHeader: true, PositiveLabel: "yes", TrimSpace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 {
		t.Fatalf("rows = %d", tab.Len())
	}
	if tab.Instances[0].Values[0] != 0 || tab.Instances[0].Values[1] != 20.5 || tab.Instances[0].Label != 1 {
		t.Fatalf("row 0 = %+v", tab.Instances[0])
	}
	// Case-insensitive category match.
	if tab.Instances[1].Values[0] != 1 || tab.Instances[1].Label != 0 {
		t.Fatalf("row 1 = %+v", tab.Instances[1])
	}
	// Unknown category maps to -1 (the unknown slot).
	if tab.Instances[2].Values[0] != -1 {
		t.Fatalf("row 2 unknown category = %v", tab.Instances[2].Values[0])
	}
	checkTable(t, tab)
}

func TestReadCSVErrors(t *testing.T) {
	s := csvSchema()
	// Wrong column count.
	if _, err := ReadCSV(strings.NewReader("red,yes\n"), s, CSVOptions{PositiveLabel: "yes"}); err == nil {
		t.Fatal("short row should error")
	}
	// Bad float.
	if _, err := ReadCSV(strings.NewReader("red,abc,yes\n"), s, CSVOptions{PositiveLabel: "yes"}); err == nil {
		t.Fatal("non-numeric continuous should error")
	}
	// Out-of-domain continuous without clamping.
	if _, err := ReadCSV(strings.NewReader("red,1000,yes\n"), s, CSVOptions{PositiveLabel: "yes"}); err == nil {
		t.Fatal("out-of-domain should error without ClampContinuous")
	}
	// With clamping it succeeds and clips.
	tab, err := ReadCSV(strings.NewReader("red,1000,yes\nred,-5,no\n"), s, CSVOptions{
		PositiveLabel: "yes", ClampContinuous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Instances[0].Values[1] != 100 || tab.Instances[1].Values[1] != 0 {
		t.Fatalf("clamping wrong: %v, %v", tab.Instances[0].Values[1], tab.Instances[1].Values[1])
	}
	// Invalid schema propagates.
	if _, err := ReadCSV(strings.NewReader(""), &Schema{Name: "bad"}, CSVOptions{}); err == nil {
		t.Fatal("invalid schema should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := Bank(stats.NewRNG(3), 200)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()), orig.Schema, CSVOptions{
		HasHeader:     true,
		PositiveLabel: orig.Schema.Labels[1],
	})
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("round trip lost rows: %d vs %d", back.Len(), orig.Len())
	}
	for i := range orig.Instances {
		if back.Instances[i].Label != orig.Instances[i].Label {
			t.Fatalf("row %d label changed", i)
		}
		for j := range orig.Instances[i].Values {
			a, b := orig.Instances[i].Values[j], back.Instances[i].Values[j]
			if a != b {
				t.Fatalf("row %d feature %d: %v != %v", i, j, a, b)
			}
		}
	}
}

func TestWriteCSVUnknownCategory(t *testing.T) {
	s := csvSchema()
	tab := &Table{Schema: s, Instances: []Instance{
		{Values: []float64{-1, 10}, Label: 0},
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "?") {
		t.Fatalf("unknown category not rendered as ?: %s", buf.String())
	}
}
