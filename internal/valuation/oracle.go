package valuation

// The coalition-valuation engine: a concurrency-safe, memoizing utility
// oracle. Coalition utilities are the unit of work behind every baseline
// scheme — each distinct coalition mask costs one FedAvg retraining — so the
// oracle (1) shards its cache to keep lookups uncontended, (2) deduplicates
// in-flight evaluations singleflight-style (two goroutines asking for the
// same mask train it once; the second waits), and (3) bounds concurrent
// trainings with a worker semaphore so a large batch cannot oversubscribe
// the machine. Utilities are deterministic functions of the mask (FedAvg
// training is seeded), so results are bit-identical regardless of worker
// count or call interleaving.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/fl"
)

// MaxParticipants is the largest federation the uint64 coalition mask can
// address. NewOracle and Utility reject anything larger instead of silently
// aliasing masks.
const MaxParticipants = 64

// oracleShards is the cache shard count (power of two). Shards keep cache
// hits from serializing on one mutex when many permutation walkers hammer
// the oracle concurrently.
const oracleShards = 16

// inflight is one in-progress coalition evaluation; waiters block on done.
type inflight struct {
	done chan struct{}
	val  float64
	err  error
}

// oracleShard is one cache shard: completed utilities plus the in-flight
// table used for singleflight deduplication.
type oracleShard struct {
	mu       sync.Mutex
	done     map[uint64]float64
	inflight map[uint64]*inflight
}

// Oracle memoizes coalition utilities: each distinct coalition is trained
// (FedAvg over its members) and evaluated once, no matter how many
// goroutines ask for it. This is the black-box retraining loop that makes
// the combinatorial baselines expensive — CTFL's whole point is to avoid it.
type Oracle struct {
	trainer *fl.Trainer
	parts   []*fl.Participant
	test    *dataset.Table
	// n is the federation size the masks address.
	n int
	// trainFn, when non-nil, replaces FedAvg retraining + evaluation —
	// engine tests and benchmarks inject synthetic utilities with
	// controlled cost to exercise the concurrency machinery in isolation.
	trainFn func(mask uint64) (float64, error)
	// testX/testY hold the test set encoded once; per-coalition evaluation
	// must not pay the encoding again.
	testX [][]float64
	testY []int

	shards [oracleShards]oracleShard

	// Workers bounds concurrent coalition trainings; 0 means GOMAXPROCS.
	// Set it before the first Utility/EvalBatch call.
	Workers int
	semOnce sync.Once
	sem     chan struct{}

	evals atomic.Int64

	// EmptyUtility is v(∅); defaults to majority-class accuracy on the test
	// set (the best label-only guess, ~50% on balanced tasks as in the
	// paper's Table II).
	EmptyUtility float64
}

// NewOracle builds a memoizing utility oracle over a fixed participant
// list. It fails when the federation exceeds MaxParticipants: a uint64
// coalition mask cannot address participant 65, and truncating would
// silently alias distinct coalitions.
func NewOracle(trainer *fl.Trainer, parts []*fl.Participant, test *dataset.Table) (*Oracle, error) {
	if len(parts) > MaxParticipants {
		return nil, fmt.Errorf("valuation: %d participants exceed the %d addressable by the uint64 coalition mask",
			len(parts), MaxParticipants)
	}
	pos := 0
	for _, in := range test.Instances {
		if in.Label == 1 {
			pos++
		}
	}
	maj := float64(pos) / float64(max(1, test.Len()))
	if maj < 0.5 {
		maj = 1 - maj
	}
	o := &Oracle{
		trainer:      trainer,
		parts:        parts,
		test:         test,
		n:            len(parts),
		EmptyUtility: maj,
	}
	o.testX, o.testY = trainer.Encoder().EncodeTable(test)
	o.initShards()
	return o, nil
}

// NewFuncOracle builds an oracle over n virtual participants whose utility
// is computed by fn instead of FedAvg retraining: the same memoizing,
// deduplicating, bounded-worker machinery over an arbitrary coalition game.
// The streaming round-valuation engine (internal/rounds) uses it with
// per-round model reconstruction as the utility; EmptyUtility defaults to 0
// and should be set by the caller when v(∅) is meaningful.
func NewFuncOracle(n int, fn func(mask uint64) (float64, error)) (*Oracle, error) {
	if n > MaxParticipants {
		return nil, fmt.Errorf("valuation: %d participants exceed the %d addressable by the uint64 coalition mask",
			n, MaxParticipants)
	}
	o := &Oracle{n: n, trainFn: fn}
	o.initShards()
	return o, nil
}

func (o *Oracle) initShards() {
	for i := range o.shards {
		o.shards[i].done = make(map[uint64]float64)
		o.shards[i].inflight = make(map[uint64]*inflight)
	}
}

// Evals reports the coalition trainings performed so far (cache misses).
func (o *Oracle) Evals() int { return int(o.evals.Load()) }

// shard spreads masks across shards with a Fibonacci hash; nearby masks
// (singleton and leave-one-out families differ in one bit) land apart.
func (o *Oracle) shard(mask uint64) *oracleShard {
	return &o.shards[(mask*0x9E3779B97F4A7C15)>>(64-4)]
}

// checkMask rejects masks with bits beyond the federation size; such masks
// would alias a real coalition after truncation.
func (o *Oracle) checkMask(mask uint64) error {
	if o.n < MaxParticipants && mask>>uint(o.n) != 0 {
		return fmt.Errorf("valuation: coalition mask %#x has bits outside the %d-participant federation", mask, o.n)
	}
	return nil
}

// acquire blocks until a training slot is free; release returns it.
func (o *Oracle) acquire() {
	o.semOnce.Do(func() {
		w := o.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		o.sem = make(chan struct{}, w)
	})
	o.sem <- struct{}{}
}

func (o *Oracle) release() { <-o.sem }

// Utility returns v(D_S) for the coalition mask, training at most once per
// distinct coalition across all goroutines. Safe for concurrent use.
func (o *Oracle) Utility(mask uint64) (float64, error) {
	if err := o.checkMask(mask); err != nil {
		return 0, err
	}
	if mask == 0 {
		return o.EmptyUtility, nil
	}
	sh := o.shard(mask)
	sh.mu.Lock()
	if u, ok := sh.done[mask]; ok {
		sh.mu.Unlock()
		return u, nil
	}
	if c, ok := sh.inflight[mask]; ok {
		sh.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &inflight{done: make(chan struct{})}
	sh.inflight[mask] = c
	sh.mu.Unlock()

	c.val, c.err = o.train(mask)

	sh.mu.Lock()
	if c.err == nil {
		sh.done[mask] = c.val
	}
	delete(sh.inflight, mask)
	sh.mu.Unlock()
	close(c.done)
	return c.val, c.err
}

// train performs the actual FedAvg retraining + evaluation for one mask,
// gated by the worker semaphore.
func (o *Oracle) train(mask uint64) (float64, error) {
	o.acquire()
	defer o.release()

	var u float64
	if o.trainFn != nil {
		var err error
		if u, err = o.trainFn(mask); err != nil {
			return 0, err
		}
	} else {
		var coalition []*fl.Participant
		for i, p := range o.parts {
			if mask&(1<<uint(i)) != 0 {
				coalition = append(coalition, p)
			}
		}
		model, err := o.trainer.Train(coalition)
		if err != nil {
			return 0, fmt.Errorf("valuation: training coalition %b: %w", mask, err)
		}
		u = model.Accuracy(o.testX, o.testY)
	}
	o.evals.Add(1)
	return u, nil
}

// EvalBatch warms the cache for every mask in the plan, evaluating distinct
// uncached coalitions concurrently (bounded by Workers). Duplicate and
// already-cached masks cost nothing. On failure it returns the error of the
// earliest failing mask in plan order, so error reporting is deterministic
// regardless of scheduling.
func (o *Oracle) EvalBatch(plan []uint64) error {
	seen := make(map[uint64]struct{}, len(plan))
	distinct := plan[:0:0]
	for _, m := range plan {
		if _, ok := seen[m]; ok {
			continue
		}
		seen[m] = struct{}{}
		distinct = append(distinct, m)
	}
	errs := make([]error, len(distinct))
	var wg sync.WaitGroup
	for i, m := range distinct {
		wg.Add(1)
		go func(i int, m uint64) {
			defer wg.Done()
			_, errs[i] = o.Utility(m)
		}(i, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
