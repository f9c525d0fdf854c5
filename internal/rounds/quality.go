package rounds

// Score-quality instruments.
//
// Sampled contribution estimates are fragile in two documented ways:
// "On the Fragility of Contribution Score Computation in FL"
// (arXiv 2509.19921) shows scores silently drift under perturbation, and
// FedRandom (arXiv 2602.05693) shows sampling-based estimators carry
// run-to-run variance that must be surfaced, not hidden. The engine
// therefore sets four Obs gauges per applied outcome:
//
//   - score drift: the largest per-participant cumulative-score change
//     over a trailing window of applied outcomes — a converged stream
//     should see this shrink; a sudden widening means the scores the
//     server serves are moving under the caller's feet;
//   - truncation rate: truncated permutation walks / permutations for
//     the last scored round — how much of the Shapley budget the inner
//     GTG truncation actually cut;
//   - sampling variance: the largest per-participant variance of the
//     per-permutation estimates (valuation.ShapleyConfig.Variance);
//   - confidence width: the FedRandom-style 95% half-width
//     1.96·sqrt(variance/permutations) for that worst participant.
//
// All of it is process-local telemetry derived from live Compute results:
// outcome payloads do not persist variance, so after a WAL replay the
// gauges restart cold (drift rebuilds as new rounds arrive; truncation
// and variance stay zero until the first live-scored round).

import "math"

// confidenceZ is the two-sided 95% normal quantile used for the
// confidence half-width.
const confidenceZ = 1.96

// updateQualityLocked folds one applied outcome into the drift window and
// sets the quality gauges. The sampling gauges keep the last live-scored
// round's values across skipped and replayed outcomes. Caller holds e.mu.
func (e *Engine) updateQualityLocked(out *Outcome) {
	if e.cfg.QualityWindow < 0 {
		return
	}
	scores := make([]float64, len(e.scores))
	copy(scores, e.scores)
	e.driftWindow = append(e.driftWindow, scores)
	if len(e.driftWindow) > e.cfg.QualityWindow {
		e.driftWindow = append(e.driftWindow[:0], e.driftWindow[len(e.driftWindow)-e.cfg.QualityWindow:]...)
	}

	drift := 0.0
	if len(e.driftWindow) >= 2 {
		oldest := e.driftWindow[0]
		for id, cur := range scores {
			old := 0.0
			if id < len(oldest) {
				old = oldest[id]
			}
			if d := abs(cur - old); d > drift {
				drift = d
			}
		}
	}
	e.obs.ScoreDrift.Set(drift)
	if !out.Skipped && out.Permutations > 0 {
		maxVar := 0.0
		for _, v := range out.Variance {
			if v > maxVar {
				maxVar = v
			}
		}
		e.obs.TruncationRate.Set(float64(out.Truncated) / float64(out.Permutations))
		e.obs.SamplingVariance.Set(maxVar)
		e.obs.ConfidenceWidth.Set(confidenceZ * math.Sqrt(maxVar/float64(out.Permutations)))
	}
}
