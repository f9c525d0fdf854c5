// Package rounds is the streaming per-round valuation engine: it ingests
// one aggregation round's participant model updates at a time and maintains
// incremental per-participant contribution scores, GTG-Shapley style
// (arXiv 2109.02053).
//
// Instead of retraining a model per coalition (the batch oracle in
// internal/valuation), each round's coalition models are *reconstructed* by
// weighted aggregation of the updates the clients already sent, with no
// gradient steps. Each round is planned once (plan.go): the logical weights
// every member puts on one side of the binarization threshold are compiled
// once, and a coalition averages and patches only the contested rest plus
// the head before its one evaluation. Two truncations keep the per-round
// cost sublinear in practice:
//
//   - between rounds: when the grand-coalition utility moved less than
//     Epsilon since the previous scored round, the whole round is skipped
//     (its marginals are taken as zero) — after convergence a round costs
//     exactly one reconstruction;
//   - within a round: truncated permutation sampling (valuation.
//     SampledShapley with TruncationEps) stops a walk once its running
//     coalition utility is within InnerEpsilon of the round's full utility.
//
// Determinism contract: scores are a pure function of (Config, ordered
// round-update sequence). Per-round permutations are drawn from a seed
// derived only from Config.Seed and the round number, utilities are
// memoized per round by a valuation oracle, and the sampling reduction is
// bit-identical at any Workers count — so the same stream replayed on any
// machine, at any concurrency, yields bit-identical float64 scores.
//
// Durability: every ingested round produces one Outcome whose Payload is a
// compact binary record (round, flags, full utility, per-participant score
// deltas). Applying payloads replays pure additions — no oracle calls — so
// a restarted server resumes scores bit-identically with zero recomputation
// of round utilities.
package rounds

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/valuation"
)

// ErrStaleRound rejects a round-update at or below the engine's high-water
// round: each round is scored exactly once, so a duplicate (e.g. a client
// retrying a push whose response was lost) must not double-count deltas.
var ErrStaleRound = errors.New("rounds: round already ingested")

// ErrConflict rejects applying an Outcome computed against a different
// engine state than the current one (another round was applied in between).
var ErrConflict = errors.New("rounds: engine advanced since outcome was computed")

// Config parameterizes an Engine. Model, EvalX and EvalY are required.
type Config struct {
	// Model is the architecture template for coalition reconstruction. Only
	// its shape is used: each round compiles the logical weights its members
	// agree on into one snapshot of that shape, and each coalition patches
	// it with the weighted aggregate of the rest. Round-update frames must
	// carry exactly len(Model.Params()) parameters.
	Model *nn.Model
	// EvalX/EvalY is the encoded held-out evaluation set coalition utilities
	// are measured on (accuracy).
	EvalX [][]float64
	EvalY []int
	// Epsilon is the between-round truncation threshold: a round whose
	// grand-coalition utility is within Epsilon of the previous scored
	// round's is skipped entirely. 0 means the default (1e-3); negative
	// disables between-round skipping.
	Epsilon float64
	// InnerEpsilon is the within-round truncation threshold handed to
	// SampledShapley. 0 means "same as Epsilon"; negative disables it.
	InnerEpsilon float64
	// Permutations per scored round; 0 uses SampledShapley's default
	// (ceil(n·log2(n+1)) over the round's n present participants).
	Permutations int
	// Seed drives permutation sampling. The per-round stream is derived
	// from it, so the same seed replays the same estimates.
	Seed int64
	// Workers bounds concurrent coalition evaluations per round; 0 means
	// GOMAXPROCS. Scores are bit-identical at any value.
	Workers int
	// Obs receives engine telemetry; nil disables all of it.
	Obs *Obs
	// QualityWindow is the trailing number of applied outcomes score drift
	// is measured over (see quality.go). 0 means 16; negative disables the
	// quality instruments.
	QualityWindow int
	// Gate enables contribution-gated client selection (the ContAvg
	// defense, see gate.go): participants whose cumulative score falls
	// below Gate.Threshold are flagged as gated after every applied
	// outcome. Nil disables gating.
	Gate *GateConfig
}

func (c Config) withDefaults() Config {
	if c.Epsilon == 0 {
		c.Epsilon = 1e-3
	}
	if c.InnerEpsilon == 0 {
		c.InnerEpsilon = c.Epsilon
	}
	if c.QualityWindow == 0 {
		c.QualityWindow = 16
	}
	return c
}

// Engine is the round-stream valuation state machine. Construct with New;
// methods are safe for concurrent use, but rounds are scored one at a time
// (Compute against the current high-water, then Apply).
type Engine struct {
	cfg          Config
	paramCount   int
	emptyUtility float64
	obs          *Obs

	mu          sync.Mutex
	rounds      int // high-water: last applied round + 1
	skipped     int // rounds skipped by between-round truncation
	applied     int // outcomes applied (distinguishes "no rounds yet" from gaps)
	prevFull    float64
	scores      []float64 // cumulative contribution, indexed by participant id
	payloads    [][]byte  // applied outcome payloads, in order (compaction input)
	updated     chan struct{}
	lastTick    time.Time
	driftWindow [][]float64 // trailing score snapshots the drift gauge spans, oldest first
	gated       []bool      // contribution-gate state, indexed by participant id
	gateLog     []GateEvent // gate transitions, in application order

	evals      atomic.Int64
	truncWalks atomic.Int64

	// scratch pools per-coalition-evaluation working sets (*evalScratch):
	// a round evaluates tens to thousands of coalitions, and the pool
	// self-sizes to the engine's worker count.
	scratch sync.Pool
}

// New builds an engine. The empty-coalition utility is the evaluation set's
// majority-class accuracy, mirroring valuation.NewOracle.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Model == nil {
		return nil, errors.New("rounds: Config.Model is required")
	}
	if len(cfg.EvalX) == 0 || len(cfg.EvalX) != len(cfg.EvalY) {
		return nil, fmt.Errorf("rounds: evaluation set has %d rows and %d labels", len(cfg.EvalX), len(cfg.EvalY))
	}
	pos := 0
	for _, y := range cfg.EvalY {
		if y == 1 {
			pos++
		}
	}
	maj := float64(pos) / float64(len(cfg.EvalY))
	if maj < 0.5 {
		maj = 1 - maj
	}
	e := &Engine{
		cfg:          cfg,
		paramCount:   len(cfg.Model.Params()),
		emptyUtility: maj,
		obs:          cfg.Obs,
		updated:      make(chan struct{}),
	}
	if e.obs == nil {
		e.obs = inertObs
	}
	return e, nil
}

// ParamCount is the flat parameter count round-update frames must carry.
func (e *Engine) ParamCount() int { return e.paramCount }

// Rounds reports the high-water mark: last applied round + 1.
func (e *Engine) Rounds() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rounds
}

// Evals reports coalition reconstructions evaluated since construction.
// Replay applies outcomes without evaluating, so after a WAL restore this
// is 0 — the zero-recomputation guarantee the resume tests pin.
func (e *Engine) Evals() int { return int(e.evals.Load()) }

// TruncatedWalks reports permutation walks cut short by within-round
// truncation since construction.
func (e *Engine) TruncatedWalks() int { return int(e.truncWalks.Load()) }

// Staleness is the time since the last applied outcome; 0 before the first.
func (e *Engine) Staleness() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lastTick.IsZero() {
		return 0
	}
	return time.Since(e.lastTick)
}

// Snapshot returns the current scores state (copied).
func (e *Engine) Snapshot() protocol.ScoresSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	scores := make([]float64, len(e.scores))
	copy(scores, e.scores)
	return protocol.ScoresSnapshot{Rounds: e.rounds, Skipped: e.skipped, Scores: scores}
}

// Payloads returns the applied outcome payloads in order — the compaction
// input a durable server snapshots alongside the evaluation set.
func (e *Engine) Payloads() [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([][]byte, len(e.payloads))
	copy(out, e.payloads)
	return out
}

// Wait blocks until the high-water round count reaches minRounds (or ctx
// ends). It backs the GET /v1/scores ?wait= long-poll.
func (e *Engine) Wait(ctx context.Context, minRounds int) error {
	for {
		e.mu.Lock()
		if e.rounds >= minRounds {
			e.mu.Unlock()
			return nil
		}
		ch := e.updated
		e.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Compute scores one round-update against the current engine state without
// mutating it. The returned Outcome must be handed to Apply (after the
// caller has durably persisted its Payload) to take effect; Outcome records
// the state basis it was computed against, and Apply rejects it if another
// round landed in between. u.Round below the high-water mark is
// ErrStaleRound.
func (e *Engine) Compute(u protocol.RoundUpdate) (*Outcome, error) {
	if u.ParamCount != e.paramCount {
		return nil, fmt.Errorf("rounds: update carries %d params, model has %d", u.ParamCount, e.paramCount)
	}
	e.mu.Lock()
	basis := e.rounds
	started := e.applied > 0
	prev := e.prevFull
	e.mu.Unlock()
	if u.Round < basis {
		return nil, fmt.Errorf("%w: round %d, high-water %d", ErrStaleRound, u.Round, basis)
	}

	start := time.Now()
	oracle, err := valuation.NewFuncOracle(u.Count, e.newPlan(u).evalCoalition)
	if err != nil {
		return nil, err
	}
	oracle.Workers = e.cfg.Workers
	oracle.EmptyUtility = e.emptyUtility

	full := uint64(1)<<uint(u.Count) - 1
	vFull, err := oracle.Utility(full)
	if err != nil {
		return nil, err
	}

	out := &Outcome{basis: basis, Round: u.Round, VFull: vFull}
	if started && e.cfg.Epsilon > 0 && abs(vFull-prev) < e.cfg.Epsilon {
		// Between-round truncation: the global model barely moved, so every
		// marginal this round is taken as zero. Cost: one reconstruction.
		out.Skipped = true
		out.Evals = oracle.Evals()
		e.evals.Add(int64(out.Evals))
		e.obs.UpdateSeconds.ObserveSince(start)
		return out, nil
	}

	var trunc atomic.Int64
	var variance []float64
	var nperm int
	phi, err := valuation.SampledShapley(u.Count, oracle.Utility, valuation.ShapleyConfig{
		Permutations:  e.cfg.Permutations,
		TruncationEps: max(e.cfg.InnerEpsilon, 0),
		Rand:          rand.New(rand.NewSource(permSeed(e.cfg.Seed, u.Round))),
		Workers:       e.cfg.Workers,
		Warm:          oracle.EvalBatch,
		Truncated:     &trunc,
		Variance:      &variance,
		PermCount:     &nperm,
	})
	if err != nil {
		return nil, err
	}
	out.IDs = make([]int, u.Count)
	out.Deltas = phi
	for i := range out.IDs {
		out.IDs[i] = u.ID(i)
	}
	out.Evals = oracle.Evals()
	out.Truncated = int(trunc.Load())
	out.Permutations = nperm
	out.Variance = variance
	e.evals.Add(int64(out.Evals))
	e.truncWalks.Add(trunc.Load())
	e.obs.UpdateSeconds.ObserveSince(start)
	return out, nil
}

// Apply commits a computed outcome. It fails with ErrConflict when the
// engine advanced past the outcome's basis — the caller's serialization
// (one round in flight at a time) makes that unreachable in practice, but
// the check keeps a race from silently corrupting scores.
func (e *Engine) Apply(out *Outcome) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if out.basis != e.rounds {
		return fmt.Errorf("%w: basis %d, high-water %d", ErrConflict, out.basis, e.rounds)
	}
	e.applyLocked(out, out.Payload())
	return nil
}

// ApplyPayload replays one durable outcome record (WAL restore): pure score
// additions, no coalition evaluation. Records must arrive in their original
// order; a round at or below the high-water mark is ErrStaleRound.
func (e *Engine) ApplyPayload(p []byte) error {
	out, err := DecodeOutcome(p)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.applied > 0 && out.Round < e.rounds {
		return fmt.Errorf("%w: round %d, high-water %d", ErrStaleRound, out.Round, e.rounds)
	}
	// Keep the caller's bytes out of engine state: payloads are retained for
	// compaction and must not alias a buffer the caller may reuse.
	retained := make([]byte, len(p))
	copy(retained, p)
	e.applyLocked(out, retained)
	return nil
}

// applyLocked mutates engine state with one outcome. Caller holds e.mu.
func (e *Engine) applyLocked(out *Outcome, payload []byte) {
	e.rounds = out.Round + 1
	e.prevFull = out.VFull
	e.applied++
	if out.Skipped {
		e.skipped++
		e.obs.Skipped.Inc()
	} else {
		for i, id := range out.IDs {
			for id >= len(e.scores) {
				e.scores = append(e.scores, 0)
			}
			e.scores[id] += out.Deltas[i]
		}
	}
	e.payloads = append(e.payloads, payload)
	e.lastTick = time.Now()
	e.obs.Ingested.Inc()
	e.obs.Evals.Add(int64(out.Evals))
	e.obs.InnerTruncations.Add(int64(out.Truncated))
	e.updateGateLocked(out.Round)
	e.updateQualityLocked(out)
	close(e.updated)
	e.updated = make(chan struct{})
}

// permSeed derives the per-round permutation seed: a fixed mix of the
// configured seed and the round number (SplitMix64-style), so round t's
// sampling is independent of how many rounds were skipped before it and
// identical across replays.
func permSeed(seed int64, round int) int64 {
	z := uint64(seed) + uint64(round+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
