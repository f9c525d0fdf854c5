package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// calibrate runs every selected workload n times on consecutive seeds,
// alternating the workload order, prints the median and quartiles of every
// end-to-end metric, and writes each metric's bound to BENCHMARK.json.
func calibrate(ctx context.Context, cfg *config, selected []*workload, n int) error {
	values := map[string]map[string][]float64{} // workload → metric → values
	var order []string
	base := cfg.seed
	for i := 0; i < n; i++ {
		c := *cfg
		c.seed = base + int64(i)
		fx, err := buildFixture(c.seed)
		if err != nil {
			return err
		}
		ws := append([]*workload(nil), selected...)
		if i%2 == 1 {
			slices.Reverse(ws)
		}
		for _, w := range ws {
			res, err := runWorkload(ctx, &c, fx, w, false)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, c.seed, err)
			}
			if !res.correct() {
				report(res, res.e2e)
				return errors.New("a correctness check failed")
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			line := ""
			for _, m := range res.e2e {
				if !slices.Contains(order, m.name) {
					order = append(order, m.name)
				}
				values[w.name][m.name] = append(values[w.name][m.name], m.value)
				line += fmt.Sprintf(" %s=%.4f", m.name, m.value)
			}
			logf("calibrate: %s seed %d:%s", w.name, c.seed, line)
		}
	}
	return writeBounds(cfg, selected, values, order)
}

// Bound policy: a metric may worsen by 10% of the parent's median, or by
// three times its worst spread (quartile distance over median) when that is
// wider, capped below the 25% the benchmark contract allows. setup_s gets a
// bound above every other metric's (25% at most): start-ups of a few
// milliseconds are the least steady timing.
const (
	boundBase    = 0.10
	boundSpreads = 3
	boundCap     = 0.25
	boundStep    = 0.01 // setup_s's margin over the others; their cap is boundCap - boundStep
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// writeBounds prints each metric's quartiles per workload and stores its
// bound in BENCHMARK.json.
func writeBounds(cfg *config, selected []*workload, values map[string]map[string][]float64, order []string) error {
	bounds := map[string]float64{}
	for _, name := range order {
		b := boundBase
		for _, w := range selected {
			v := values[w.name][name]
			q1, med, q3 := quartiles(v)
			spread := (q3 - q1) / med
			fmt.Printf("%-7s calibrate %-12s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.4f  (n=%d)\n",
				w.name, name, med, q1, q3, spread, len(v))
			if spread > boundCap {
				fmt.Printf("%-7s calibrate %-12s UNSTEADY: spread %.4f exceeds every allowed bound\n", w.name, name, spread)
			}
			b = math.Max(b, spread*boundSpreads)
		}
		bounds[name] = math.Min(b, boundCap-boundStep)
	}
	setup := bounds["setup_s"]
	for name, b := range bounds {
		if name != "setup_s" {
			setup = math.Max(setup, b+boundStep)
		}
	}
	bounds["setup_s"] = math.Min(setup, boundCap)

	path := filepath.Join(cfg.repo, "BENCHMARK.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for i, m := range bf.EndToEnd {
		if b, ok := bounds[m.Name]; ok {
			bf.EndToEnd[i].Bound = math.Ceil(b*1000) / 1000
			fmt.Printf("bound %-12s %.3f\n", m.Name, bf.EndToEnd[i].Bound)
		}
	}
	out, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
