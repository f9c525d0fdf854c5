package core

// This file implements CTFL's contribution allocation schemes over a tracing
// Result: the micro scheme of Eq. 5 (credit proportional to related training
// instances, matching FedAvg's size-weighted aggregation), the macro scheme
// of Eq. 6 (equal credit above a threshold — replication-robust), and their
// loss-side duals used for label-flip detection (Section IV-A).

// MicroScores computes Eq. 5: each correctly classified test instance
// distributes 1/|Dte| of credit across participants proportionally to their
// related training instance counts. Correct test instances with no related
// training data assign no credit (they surface in CoverageGap instead).
func (r *Result) MicroScores() []float64 {
	return r.microScores(true)
}

// MicroLossScores is Eq. 5 with the indicator flipped to misclassified test
// instances: participants whose data supported wrong classifications absorb
// proportional blame. Used by the label-flip detector.
func (r *Result) MicroLossScores() []float64 {
	return r.microScores(false)
}

func (r *Result) microScores(correct bool) []float64 {
	scores := make([]float64, r.NumParticipants)
	if r.TestSize == 0 {
		return scores
	}
	inv := 1 / float64(r.TestSize)
	for te := 0; te < r.TestSize; te++ {
		if r.Correct(te) != correct {
			continue
		}
		total := 0
		for _, c := range r.Counts[te] {
			total += c
		}
		if total == 0 {
			continue
		}
		share := inv / float64(total)
		for i, c := range r.Counts[te] {
			if c > 0 {
				scores[i] += share * float64(c)
			}
		}
	}
	return scores
}

// MacroScores computes Eq. 6 with the tracer's configured delta: each
// correctly classified test instance splits 1/|Dte| equally among the
// participants holding at least delta related training instances.
func (r *Result) MacroScores() []float64 {
	return r.macroScores(r.tracer.cfg.Delta, true)
}

// MacroScoresAt computes Eq. 6 at an explicit delta; scores for several
// delta values can be generated progressively from the same trace, as the
// paper notes, because tracing and allocation are independent.
func (r *Result) MacroScoresAt(delta int) []float64 {
	return r.macroScores(delta, true)
}

// MacroLossScores is Eq. 6 restricted to misclassified test instances.
func (r *Result) MacroLossScores() []float64 {
	return r.macroScores(r.tracer.cfg.Delta, false)
}

func (r *Result) macroScores(delta int, correct bool) []float64 {
	if delta < 1 {
		delta = 1
	}
	scores := make([]float64, r.NumParticipants)
	if r.TestSize == 0 {
		return scores
	}
	inv := 1 / float64(r.TestSize)
	for te := 0; te < r.TestSize; te++ {
		if r.Correct(te) != correct {
			continue
		}
		qualifying := 0
		for _, c := range r.Counts[te] {
			if c >= delta {
				qualifying++
			}
		}
		if qualifying == 0 {
			continue
		}
		share := inv / float64(qualifying)
		for i, c := range r.Counts[te] {
			if c >= delta {
				scores[i] += share
			}
		}
	}
	return scores
}

// Accuracy returns the model test accuracy observed during tracing — the
// data utility v(D_N) of Eq. 1.
func (r *Result) Accuracy() float64 {
	if r.TestSize == 0 {
		return 0
	}
	ok := 0
	for te := 0; te < r.TestSize; te++ {
		if r.Correct(te) {
			ok++
		}
	}
	return float64(ok) / float64(r.TestSize)
}

// CoverageGap returns the fraction of correctly classified test instances
// whose credit could not be allocated because no training data passed the
// Eq. 4 threshold. Group rationality holds up to this gap:
// sum(MicroScores) = Accuracy() - CoverageGap().
func (r *Result) CoverageGap() float64 {
	if r.TestSize == 0 {
		return 0
	}
	gap := 0
	for te := 0; te < r.TestSize; te++ {
		if !r.Correct(te) {
			continue
		}
		total := 0
		for _, c := range r.Counts[te] {
			total += c
		}
		if total == 0 {
			gap++
		}
	}
	return float64(gap) / float64(r.TestSize)
}

// UselessRatio returns, per participant, the fraction of its training
// instances never matched by any test instance — the paper's low-quality
// data indicator (Section IV-B).
func (r *Result) UselessRatio() []float64 {
	// Every record of a pattern group is matched as often as the group, so
	// the counts come from the groups' owner histograms; the sums are
	// integer-valued, so they equal a per-record count exactly.
	t := r.tracer
	total := make([]float64, t.numParts)
	unused := make([]float64, t.numParts)
	for u, hits := range r.groupHits {
		for i, h := range t.hist[u*t.numParts : (u+1)*t.numParts] {
			total[i] += float64(h)
			if hits == 0 {
				unused[i] += float64(h)
			}
		}
	}
	out := make([]float64, t.numParts)
	for i := range out {
		if total[i] > 0 {
			out[i] = unused[i] / total[i]
		}
	}
	return out
}

// SuspicionReport flags potential label-flip attackers: participants whose
// loss-side credit is large relative to their gain-side credit. The paper's
// detector observes that honest misclassifications rarely coincide with many
// same-rule, contradictory-label training matches, while flipped data does
// exactly that (Section IV-A).
type SuspicionReport struct {
	// Gain and Loss are the micro scores on correct and incorrect test
	// instances respectively.
	Gain, Loss []float64
	// Ratio[i] = Loss[i] / (Gain[i] + Loss[i]); 0 when both are zero.
	Ratio []float64
	// Suspects lists participant indices with Ratio above the threshold.
	Suspects []int
	// Threshold applied to Ratio.
	Threshold float64
}

// Suspicion computes a SuspicionReport with the given ratio threshold
// (e.g. 0.5: more blame than credit).
func (r *Result) Suspicion(threshold float64) *SuspicionReport {
	rep := &SuspicionReport{
		Gain:      r.MicroScores(),
		Loss:      r.MicroLossScores(),
		Ratio:     make([]float64, r.NumParticipants),
		Threshold: threshold,
	}
	for i := 0; i < r.NumParticipants; i++ {
		sum := rep.Gain[i] + rep.Loss[i]
		if sum > 0 {
			rep.Ratio[i] = rep.Loss[i] / sum
		}
		if rep.Ratio[i] > threshold {
			rep.Suspects = append(rep.Suspects, i)
		}
	}
	return rep
}
