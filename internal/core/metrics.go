package core

// Metric-generalized allocation. The paper notes (Definition II.1 and the
// group-rationality discussion) that CTFL extends beyond plain accuracy to
// any per-instance-decomposable utility metric by "modifying the allocation
// formula according to the performance metric", and that contributions are
// additive across metrics. This file implements:
//
//   - WeightedScores: Eq. 5 with an arbitrary per-test-instance weight,
//     the primitive every decomposable metric reduces to;
//   - RecallScores: credit restricted to one class's test instances (the
//     per-class building block of macro-F1-style metrics);
//   - MergeResults: additivity over test sets / metrics — combine tracing
//     results without retracing.

import "fmt"

// WeightedScores generalizes MicroScores (Eq. 5) to an arbitrary utility
// metric decomposed as sum over test instances of weight[te] ·
// 1[correct(te)]: each correctly classified instance distributes
// weight[te] of credit proportionally to related-instance counts. With
// weight[te] = 1/TestSize it reduces to MicroScores exactly. The returned
// scores sum to the metric value over covered correct instances (group
// rationality for the generalized metric).
func (r *Result) WeightedScores(weights []float64) []float64 {
	if len(weights) != r.TestSize {
		panic(fmt.Sprintf("core: WeightedScores got %d weights for %d test instances", len(weights), r.TestSize))
	}
	scores := make([]float64, r.NumParticipants)
	for te := 0; te < r.TestSize; te++ {
		if !r.Correct(te) || weights[te] == 0 {
			continue
		}
		total := 0
		for _, c := range r.Counts[te] {
			total += c
		}
		if total == 0 {
			continue
		}
		share := weights[te] / float64(total)
		for i, c := range r.Counts[te] {
			if c > 0 {
				scores[i] += share * float64(c)
			}
		}
	}
	return scores
}

// RecallScores allocates credit only over test instances whose true label
// is class, each weighted 1/#class-instances — the recall-of-class metric.
// Per-class recalls are the building blocks of macro-F1-style utilities,
// and by additivity their allocations can be combined linearly.
func (r *Result) RecallScores(class int) []float64 {
	n := 0
	for te := 0; te < r.TestSize; te++ {
		if r.Truth[te] == class {
			n++
		}
	}
	weights := make([]float64, r.TestSize)
	for te := 0; te < r.TestSize; te++ {
		if r.Truth[te] == class && n > 0 {
			weights[te] = 1 / float64(n)
		}
	}
	return r.WeightedScores(weights)
}

// MergeResults combines tracing results produced by the SAME tracer over
// disjoint test sets into one result equivalent to tracing their union —
// the additivity property of Section III-D made operational: new test data
// (or a new metric's test set) is traced incrementally and merged, never
// retraced from scratch.
func MergeResults(a, b *Result) (*Result, error) {
	if a.tracer != b.tracer {
		return nil, fmt.Errorf("core: MergeResults requires results from the same tracer")
	}
	out := a.tracer.newResult(a.TestSize + b.TestSize)
	out.Pred = append(append([]int{}, a.Pred...), b.Pred...)
	out.Truth = append(append([]int{}, a.Truth...), b.Truth...)
	out.Counts = append(append([][]int{}, a.Counts...), b.Counts...)
	for u := range out.groupHits {
		out.groupHits[u] = a.groupHits[u] + b.groupHits[u]
	}
	a.interp()
	b.interp()
	out.interp()
	for i := 0; i < a.NumParticipants; i++ {
		out.beneficialFreq[i].addAll(a.beneficialFreq[i])
		out.beneficialFreq[i].addAll(b.beneficialFreq[i])
		out.harmfulFreq[i].addAll(a.harmfulFreq[i])
		out.harmfulFreq[i].addAll(b.harmfulFreq[i])
	}
	out.uncoveredRuleFreq.addAll(a.uncoveredRuleFreq)
	out.uncoveredRuleFreq.addAll(b.uncoveredRuleFreq)
	return out, nil
}
