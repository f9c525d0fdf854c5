package main

// ctfl bench — the repeatable benchmark runner behind the committed
// BENCH_*.json baselines. It shells out to `go test -run=NONE -bench=...
// -benchmem`, parses the standard benchmark output, optionally joins the
// numbers against saved "before" outputs (raw `go test -bench` text files),
// and writes a machine-readable JSON report with per-benchmark ns/op,
// B/op, allocs/op and speedup factors.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// benchEntry is one benchmark's measurement (and, when a baseline was
// supplied, its before/after comparison).
type benchEntry struct {
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran under (the -N suffix go
	// test appends); 1 when the suffix is absent. Parallel-engine numbers
	// are only comparable across machines alongside this.
	Procs    int     `json:"procs,omitempty"`
	NsOp     float64 `json:"ns_op"`
	BytesOp  float64 `json:"bytes_op,omitempty"`
	AllocsOp float64 `json:"allocs_op,omitempty"`

	BeforeNsOp     float64 `json:"before_ns_op,omitempty"`
	BeforeBytesOp  float64 `json:"before_bytes_op,omitempty"`
	BeforeAllocsOp float64 `json:"before_allocs_op,omitempty"`
	// Speedup is before_ns_op / ns_op (>1 means faster than the baseline).
	Speedup float64 `json:"speedup,omitempty"`
}

// benchReport is the BENCH_*.json document.
type benchReport struct {
	Generated  string       `json:"generated"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Bench      string       `json:"bench_regex"`
	Packages   []string     `json:"packages"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

// defaultBenchRegex covers the hot paths the performance overhauls target:
// tracing (construction + queries), NN training and batch inference, the
// end-to-end Table II pipeline, the parallel coalition-valuation engine,
// and the streaming round-valuation engine.
const defaultBenchRegex = "BenchmarkTrace|BenchmarkNewTracer|BenchmarkTrainEpochs|" +
	"BenchmarkPredictBatch|BenchmarkActivationBits|BenchmarkTable2|BenchmarkTracingThroughput|" +
	"BenchmarkOracleBatch|BenchmarkSampledShapleyParallel|" +
	"BenchmarkTraceResult|BenchmarkUploadIngest|BenchmarkServerPredict|BenchmarkServerTrace|BenchmarkServerUploadIngest|" +
	"BenchmarkRoundIngest|BenchmarkIncrementalScores|BenchmarkBatchRevaluation"

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	benchRe := fs.String("bench", defaultBenchRegex, "benchmark regex passed to go test -bench")
	pkgs := fs.String("pkg", "./internal/core/,./internal/nn/,./internal/valuation/,./internal/rounds/,./internal/protocol/,./internal/server/,.", "comma-separated packages to benchmark")
	before := fs.String("before", "", "comma-separated files or globs of saved `go test -bench` output to compare against")
	out := fs.String("o", "", "write the JSON report here (default: stdout)")
	benchtime := fs.String("benchtime", "", "go test -benchtime value (e.g. 2s, 100x)")
	count := fs.Int("count", 1, "go test -count value")
	profileDir := fs.String("profile", "", "directory receiving per-package CPU and heap pprof profiles")
	if err := fs.Parse(args); err != nil {
		return err
	}

	pkgList := strings.Split(*pkgs, ",")
	commonArgs := []string{"-run=NONE", "-bench=" + *benchRe, "-benchmem",
		"-count=" + strconv.Itoa(*count)}
	if *benchtime != "" {
		commonArgs = append(commonArgs, "-benchtime="+*benchtime)
	}

	var raw []byte
	if *profileDir != "" {
		// go test rejects -cpuprofile with multiple packages, so profiled
		// runs go one package at a time, each writing its own pprof pair.
		if err := os.MkdirAll(*profileDir, 0o755); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		for _, pkg := range pkgList {
			slug := pkgSlug(pkg)
			goArgs := append([]string{"test"}, commonArgs...)
			goArgs = append(goArgs,
				"-cpuprofile", filepath.Join(*profileDir, slug+".cpu.pprof"),
				"-memprofile", filepath.Join(*profileDir, slug+".mem.pprof"),
				pkg)
			fmt.Fprintf(os.Stderr, "ctfl bench: go %s\n", strings.Join(goArgs, " "))
			cmd := exec.Command("go", goArgs...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("bench: go test %s failed: %w", pkg, err)
			}
			os.Stderr.Write(out)
			raw = append(raw, out...)
		}
		fmt.Fprintf(os.Stderr, "ctfl bench: profiles in %s (inspect with `go tool pprof`)\n", *profileDir)
	} else {
		goArgs := append([]string{"test"}, commonArgs...)
		goArgs = append(goArgs, pkgList...)
		fmt.Fprintf(os.Stderr, "ctfl bench: go %s\n", strings.Join(goArgs, " "))
		cmd := exec.Command("go", goArgs...)
		cmd.Stderr = os.Stderr
		var err error
		raw, err = cmd.Output()
		if err != nil {
			return fmt.Errorf("bench: go test failed: %w", err)
		}
		os.Stderr.Write(raw)
	}

	entries := parseBenchOutput(string(raw))
	if len(entries) == 0 {
		return fmt.Errorf("bench: no benchmark results parsed")
	}

	if *before != "" {
		base, err := loadBaseline(*before)
		if err != nil {
			return err
		}
		for i := range entries {
			b, ok := base[entries[i].Name]
			if !ok {
				continue
			}
			entries[i].BeforeNsOp = b.NsOp
			entries[i].BeforeBytesOp = b.BytesOp
			entries[i].BeforeAllocsOp = b.AllocsOp
			if entries[i].NsOp > 0 {
				entries[i].Speedup = round2(b.NsOp / entries[i].NsOp)
			}
		}
	}

	rep := benchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Bench:      *benchRe,
		Packages:   pkgList,
		Benchmarks: entries,
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if *out == "" {
		os.Stdout.Write(doc)
		return nil
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ctfl bench: wrote %s (%d benchmarks)\n", *out, len(entries))
	return nil
}

// benchLine matches standard `go test -bench -benchmem` result lines, e.g.
//
//	BenchmarkTraceIndexed-8   132   8891909 ns/op   2654486 B/op   6566 allocs/op
//	BenchmarkUploadIngest-8   658   1586672 ns/op   10.67 MB/s   760856 B/op   1576 allocs/op
//
// The throughput column benchmarks with b.SetBytes emit is skipped. The -N
// GOMAXPROCS suffix is recorded as Procs but stripped from the name, so
// baselines recorded on a different core count still join by name.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-(\d+))?\s+\d+\s+([0-9.]+) ns/op(?:\s+[0-9.]+ MB/s)?(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

func parseBenchOutput(out string) []benchEntry {
	var entries []benchEntry
	seen := map[string]int{} // name -> index, averaging repeated -count runs
	counts := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		e := benchEntry{Name: m[1], Procs: 1}
		if m[2] != "" {
			e.Procs, _ = strconv.Atoi(m[2])
		}
		e.NsOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			e.BytesOp, _ = strconv.ParseFloat(m[4], 64)
			e.AllocsOp, _ = strconv.ParseFloat(m[5], 64)
		}
		if i, ok := seen[e.Name]; ok {
			n := float64(counts[e.Name])
			entries[i].NsOp = (entries[i].NsOp*n + e.NsOp) / (n + 1)
			entries[i].BytesOp = (entries[i].BytesOp*n + e.BytesOp) / (n + 1)
			entries[i].AllocsOp = (entries[i].AllocsOp*n + e.AllocsOp) / (n + 1)
			counts[e.Name]++
			continue
		}
		seen[e.Name] = len(entries)
		counts[e.Name] = 1
		entries = append(entries, e)
	}
	return entries
}

// loadBaseline parses one or more saved `go test -bench` outputs into a
// name-indexed map. Arguments may be files or globs, comma separated.
func loadBaseline(spec string) (map[string]benchEntry, error) {
	base := map[string]benchEntry{}
	for _, pat := range strings.Split(spec, ",") {
		files, err := filepath.Glob(pat)
		if err != nil {
			return nil, fmt.Errorf("bench: bad -before pattern %q: %w", pat, err)
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("bench: -before pattern %q matched no files", pat)
		}
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			for _, e := range parseBenchOutput(string(raw)) {
				base[e.Name] = e
			}
		}
	}
	return base, nil
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

// pkgSlug flattens a package path into a filename-safe profile prefix:
// "./internal/core/" → "internal_core", "." → "root".
func pkgSlug(pkg string) string {
	s := strings.Trim(pkg, "./")
	if s == "" {
		return "root"
	}
	return strings.NewReplacer("/", "_", ".", "_").Replace(s)
}
