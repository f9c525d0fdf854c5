package protocol

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// benchTraceResult sizes the payload like a mid-sized federation: 100
// participants, a handful of suspects.
func benchTraceResult() *TraceResult {
	r := stats.NewRNG(7)
	tr := &TraceResult{Accuracy: 0.9, CoverageGap: 0.05}
	for i := 0; i < 100; i++ {
		tr.Micro = append(tr.Micro, r.Float64())
		tr.Macro = append(tr.Macro, r.Float64())
		tr.LossRatio = append(tr.LossRatio, r.Float64())
		tr.UselessRatio = append(tr.UselessRatio, r.Float64())
	}
	tr.Suspects = []int{3, 41, 77}
	return tr
}

func BenchmarkTraceResultEncode(b *testing.B) {
	tr := benchTraceResult()
	b.Run("codec=json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec=binary", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = AppendTraceResult(buf[:0], tr)
		}
	})
}

func BenchmarkTraceResultDecode(b *testing.B) {
	tr := benchTraceResult()
	jsonBytes, err := json.Marshal(tr)
	if err != nil {
		b.Fatal(err)
	}
	frame := AppendTraceResult(nil, tr)
	b.Run("codec=json", func(b *testing.B) {
		b.ReportAllocs()
		var dst TraceResult
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(jsonBytes, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec=binary", func(b *testing.B) {
		b.ReportAllocs()
		var dst TraceResult
		for i := 0; i < b.N; i++ {
			f, _, err := ParseFrame(frame)
			if err != nil {
				b.Fatal(err)
			}
			if err := ParseTraceResultInto(f, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchUploadFrame builds one 512-record, 256-rule upload frame — the shape
// of a real participant's activation batch.
func benchUploadFrame(b *testing.B) []byte {
	b.Helper()
	frame, err := randomUpload(stats.NewRNG(8), 0, 256, 512).Encode()
	if err != nil {
		b.Fatal(err)
	}
	return frame
}

// BenchmarkUploadIngest times the zero-copy ingest path: validate in place,
// persist the raw bytes (free) and slab-decode straight into training
// records.
func BenchmarkUploadIngest(b *testing.B) {
	frame := benchUploadFrame(b)
	b.Run("path=v2_zerocopy", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		var dst []core.TrainingUpload
		for i := 0; i < b.N; i++ {
			if _, err := ValidateUploadFrame(frame); err != nil {
				b.Fatal(err)
			}
			var err error
			if dst, _, err = AppendTrainingRecords(dst[:0], frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}
