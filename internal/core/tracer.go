// Package core implements CTFL — Contribution Tracing for Federated
// Learning — the paper's primary contribution. Given a single rule-based
// global model trained on all participants' data, the tracer matches every
// test instance to the training data that learned its activated rules
// (Eq. 4), the allocators convert those matches into micro (Eq. 5) and macro
// (Eq. 6) contribution scores, the loss tracer flags label-flipping attacks,
// and the interpreter summarizes each participant's beneficial and harmful
// characteristics through frequently activated rules.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/rules"
)

// Config controls tracing.
type Config struct {
	// TauW is the activation-overlap threshold of Eq. 4 in (0, 1]. The paper
	// recommends values near 1.0 for rule-rich datasets and defaults the
	// range to [0.8, 1]. Default 0.9.
	TauW float64
	// Delta is the macro scheme's minimum related-instance count (Eq. 6).
	// Default 2.
	Delta int
	// Workers bounds tracing parallelism; 0 means a small default.
	Workers int
	// Obs receives tracer telemetry (strategy counters, query latency).
	// Nil disables instrumentation at the cost of one pointer check.
	Obs *Obs
}

func (c Config) withDefaults() Config {
	if c.TauW == 0 {
		c.TauW = 0.9
	}
	if c.Delta == 0 {
		c.Delta = 2
	}
	if c.Workers == 0 {
		c.Workers = 8
	}
	return c
}

// Tracer matches test instances against the training data of a federation
// through the activated rules of a trained rule-based model. It traces one
// View of an Index with one Config; building it costs one pass over the
// view's records.
type Tracer struct {
	cfg Config
	// obs is cfg.Obs or an inert zero value, so instrumentation sites
	// never need a nil check on the struct itself.
	obs *Obs
	rs  *rules.Set

	numParts int
	v        View
	// hist[u*numParts+i] counts participant i's records in group u: a
	// matched group adds its whole row to the per-participant counts.
	hist []int32

	// scratch pools per-goroutine accumulator state for traceInto.
	scratch sync.Pool
}

// TrainingUpload is one training instance's contribution to the tracing
// index, as a participant would upload it to the federation: the owner's
// participant index, the instance label, and the full rule-activation
// bitset. No raw feature values appear — this is the paper's privacy
// protocol made explicit (see also internal/protocol for the wire format).
type TrainingUpload struct {
	Owner       int
	Label       int
	Activations *bitset.Set
}

// NewTracer indexes the participants' training data under the extracted rule
// set. Participants are identified by their slice position, matching the
// score vectors returned by the allocators. Only the participants' rule
// activation vectors are consumed — never raw feature values.
func NewTracer(rs *rules.Set, parts []*fl.Participant, cfg Config) *Tracer {
	x := NewIndex(rs)
	for pi, p := range parts {
		acts, _ := rs.ActivationsTable(p.Data)
		for i, a := range acts {
			x.Append(TrainingUpload{Owner: pi, Label: p.Data.Instances[i].Label, Activations: a})
		}
	}
	return newTracer(x.View(), len(parts), cfg)
}

// NewTracerFromUploads indexes uploaded activation vectors and returns a
// tracer over them: NewIndex, one Append per upload, then a View. The
// uploads are only read. Owners must lie in [0, numParts).
func NewTracerFromUploads(rs *rules.Set, numParts int, uploads []TrainingUpload, cfg Config) *Tracer {
	x := NewIndex(rs)
	for _, u := range uploads {
		if u.Owner >= numParts {
			panic(fmt.Sprintf("core: upload owner %d out of range [0,%d)", u.Owner, numParts))
		}
		x.Append(u)
	}
	return newTracer(x.View(), numParts, cfg)
}

// newTracer builds the per-group owner histogram of v's records for
// numParts participants (at least the view's highest owner + 1).
func newTracer(v View, numParts int, cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	if !(cfg.TauW > 0 && cfg.TauW <= 1) {
		panic(fmt.Sprintf("core: TauW must be in (0,1], got %v", cfg.TauW))
	}
	t := &Tracer{cfg: cfg, obs: cfg.Obs, rs: v.rs, numParts: numParts, v: v}
	if t.obs == nil {
		t.obs = &Obs{}
	}
	nu := len(v.pat)
	t.hist = make([]int32, nu*numParts)
	for j, u := range v.group {
		t.hist[int(u)*numParts+int(v.owner[j])]++
	}
	t.scratch = sync.Pool{New: func() any {
		return &traceScratch{acc: make([]float64, nu), stamp: make([]uint32, nu)}
	}}
	return t
}

// traceScratch is per-goroutine accumulator state for traceInto: acc holds
// weighted-overlap partial sums per unique pattern, stamp generation-tags
// entries so the arrays never need zeroing between queries, and
// touched/matched are reusable id buffers.
type traceScratch struct {
	acc     []float64
	stamp   []uint32
	gen     uint32
	touched []int32
	matched []int32
}

func (t *Tracer) getScratch() *traceScratch   { return t.scratch.Get().(*traceScratch) }
func (t *Tracer) putScratch(sc *traceScratch) { t.scratch.Put(sc) }

// Result holds one tracing pass over a test set. All per-test slices are
// indexed by test-instance position.
type Result struct {
	NumParticipants int
	TestSize        int
	// Pred and Truth are the model's predictions and the true labels.
	Pred, Truth []int
	// Counts[te][i] = |D_i ∩ ct(x_te)| — participant i's related training
	// instances for test instance te (Eq. 4, traced on the predicted side,
	// which covers all four TP/TN/FP/FN cases of Section III-C).
	// Every row is an independent copy: mutating one row cannot corrupt
	// another test instance's counts.
	Counts [][]int

	tracer *Tracer
	// groupHits[u] counts the test instances related to training pattern
	// group u; every record of the group shares it (TrainMatched).
	groupHits []int

	// The interpretability accumulators are filled on first use from
	// pending, which Trace leaves behind; interpOnce guards the fill.
	interpOnce sync.Once
	pending    *pendingInterp
	// beneficialFreq[i] accumulates weighted rule-activation credit per
	// rule for participant i over correctly classified matches;
	// harmfulFreq likewise over misclassifications.
	beneficialFreq []ruleFreq
	harmfulFreq    []ruleFreq
	// uncoveredRuleFreq accumulates weighted activations over misclassified
	// test instances with insufficient related data — the data-collection
	// guidance signal of Section IV-B.
	uncoveredRuleFreq ruleFreq
}

// pendingInterp is what a trace keeps to fill its result's
// interpretability accumulators later: each test instance's activations
// and predicted-side pattern, and the pattern groups with their counts.
type pendingInterp struct {
	acts, sides []bitset.Set
	groups      []*patternGroup
	outs        []traceOut
}

// newResult returns a result over t whose accumulators start empty.
func (t *Tracer) newResult(testSize int) *Result {
	return &Result{
		NumParticipants: t.numParts,
		TestSize:        testSize,
		tracer:          t,
		groupHits:       make([]int, len(t.v.pat)),
	}
}

// interp fills the interpretability accumulators once: from the pending
// trace state, in the order the trace visited its test instances.
func (r *Result) interp() {
	r.interpOnce.Do(func() {
		t, n := r.tracer, r.NumParticipants
		freqs := newRuleFreqs(2*n+1, t.rs.Width())
		r.beneficialFreq, r.harmfulFreq, r.uncoveredRuleFreq = freqs[:n], freqs[n:2*n], freqs[2*n]
		p := r.pending
		if p == nil {
			return
		}
		var trueSide *bitset.Set
		for gi, g := range p.groups {
			for _, te := range g.members {
				trueSide = p.acts[te].AndInto(t.rs.ClassMask(r.Truth[te]), trueSide)
				t.accumulate(r, te, &p.sides[te], trueSide, p.outs[gi])
			}
		}
		r.pending = nil
	})
}

// ruleFreq accumulates weighted rule-activation credit densely by rule
// index. seen marks every rule that received an addition — exactly the
// rules a rule-keyed map would hold — so a rule whose credit sums to zero
// is still listed.
type ruleFreq struct {
	credit []float64
	seen   []bool
}

// newRuleFreqs returns n empty accumulators over width rules, carved from
// one slab.
func newRuleFreqs(n, width int) []ruleFreq {
	credit := make([]float64, n*width)
	seen := make([]bool, n*width)
	out := make([]ruleFreq, n)
	for i := range out {
		out[i] = ruleFreq{credit[i*width : (i+1)*width], seen[i*width : (i+1)*width]}
	}
	return out
}

func (f ruleFreq) add(r int, v float64) {
	f.credit[r] += v
	f.seen[r] = true
}

// addAll adds every entry o holds into f.
func (f ruleFreq) addAll(o ruleFreq) {
	for r, seen := range o.seen {
		if seen {
			f.add(r, o.credit[r])
		}
	}
}

// Correct reports whether test instance te was classified correctly.
func (r *Result) Correct(te int) bool { return r.Pred[te] == r.Truth[te] }

// patternGroup clusters test instances sharing one predicted-side
// activation pattern; tracing is a pure function of the pattern, so each is
// traced once.
type patternGroup struct {
	rep     int // representative test index
	members []int
}

// traceOut is the per-pattern tracing result.
type traceOut struct {
	counts  []int
	matched []int32 // unique training-pattern ids that passed Eq. 4
}

// Trace runs the full tracing pass of Section III-C over the test table:
// TraceColumns over its encoded instances.
func (t *Tracer) Trace(test *dataset.Table) *Result {
	return t.TraceColumns(t.rs.EncodeColumns(test))
}

// TraceColumns runs the full tracing pass of Section III-C over a test set
// held as predicate columns: for each test instance it determines the
// related training instances on the predicted-class side (TP/TN for
// correct predictions earn credit, FP/FN feed the loss analysis). The
// interpretability counters are accumulated on first use.
func (t *Tracer) TraceColumns(test *dataset.Columns) *Result {
	traceStart := time.Now()
	n := test.Len()
	acts, pred := t.rs.ActivationsColumns(test)
	res := t.newResult(n)
	res.Pred = pred
	res.Truth = append([]int(nil), test.Labels...)
	res.Counts = make([][]int, n)

	weights := t.rs.Weights()
	sides := bitset.MakeSlab(n, t.rs.Width())
	sideWeight := make([]float64, n)
	for i := range acts {
		acts[i].AndInto(t.rs.ClassMask(pred[i]), &sides[i])
		sideWeight[i] = sides[i].WeightedCount(weights)
	}

	// Dedupe identical (predicted label, side pattern) groups. The key is
	// the raw word encoding of the pattern prefixed by the predicted label —
	// no formatting, and the map lookup on string(keyBuf) does not allocate.
	byKey := map[string]*patternGroup{}
	var order []*patternGroup
	var keyBuf []byte
	for i := range sides {
		keyBuf = keyBuf[:0]
		keyBuf = append(keyBuf, byte(pred[i]))
		keyBuf = sides[i].AppendKey(keyBuf)
		g, ok := byKey[string(keyBuf)]
		if !ok {
			g = &patternGroup{rep: i}
			byKey[string(keyBuf)] = g
			order = append(order, g)
		}
		g.members = append(g.members, i)
	}

	// Every member beyond each group's representative is a query the
	// pattern dedup absorbed.
	t.obs.PatternDedupHits.Add(int64(n - len(order)))

	outs := make([]traceOut, len(order))
	var wg sync.WaitGroup
	sem := make(chan struct{}, t.cfg.Workers)
	for gi, g := range order {
		wg.Add(1)
		sem <- struct{}{}
		go func(gi int, g *patternGroup) {
			defer wg.Done()
			defer func() { <-sem }()
			outs[gi] = t.traceOne(&sides[g.rep], sideWeight[g.rep], pred[g.rep])
		}(gi, g)
	}
	wg.Wait()

	// One contiguous slab for all Counts rows; each test instance gets its
	// own copy of its group's counts (no shared backing between rows).
	// Matches are counted per training group — every member of a test
	// pattern group matches the same training groups.
	slab := make([]int, n*t.numParts)
	for gi, g := range order {
		out := outs[gi]
		for _, u := range out.matched {
			res.groupHits[u] += len(g.members)
		}
		for _, te := range g.members {
			row := slab[te*t.numParts : (te+1)*t.numParts : (te+1)*t.numParts]
			copy(row, out.counts)
			res.Counts[te] = row
		}
	}
	res.pending = &pendingInterp{acts: acts, sides: sides, groups: order, outs: outs}
	t.obs.TraceSeconds.ObserveSince(traceStart)
	return res
}

// traceOne computes Eq. 4 for one activation pattern: related training
// instances are those in the predicted class whose class-side activations
// cover at least TauW of the pattern's weighted activations.
func (t *Tracer) traceOne(side *bitset.Set, denom float64, label int) traceOut {
	var queryStart time.Time
	if t.obs.QuerySeconds != nil {
		queryStart = time.Now()
	}
	counts := make([]int, t.numParts)
	sc := t.getScratch()
	m := t.traceInto(side, denom, label, counts, sc)
	if t.obs.QuerySeconds != nil {
		t.obs.QuerySeconds.ObserveSince(queryStart)
	}
	var matched []int32
	if len(m) > 0 {
		matched = append(matched, m...)
	}
	t.putScratch(sc)
	return traceOut{counts: counts, matched: matched}
}

// traceInto is the zero-allocation tracing kernel. It evaluates Eq. 4 over
// the unique training-pattern groups, accumulates the matched groups' owner
// histograms into counts (which must be zeroed, length numParts), and
// returns the matched unique ids. The returned slice aliases sc and is only
// valid until the next traceInto call with the same scratch.
//
// Two evaluation strategies produce bit-identical results, and each query
// picks the cheaper one by predicted cost:
//
//   - inverted index: walk the posting list of every rule activated in
//     side, accumulating each touched group's weighted overlap. Rules are
//     visited in ascending order, so each group's overlap is summed in
//     exactly the order WeightedIntersect uses — the sums, and therefore
//     the threshold decisions, match the scan bit-for-bit (TestGoldenTrace
//     and TestPropertyIndexMatchesLinearScanRandom pin this down).
//     Cost ≈ total posting entries touched.
//   - bit-parallel scan: WeightedIntersect against every same-label unique
//     pattern. Cost ≈ number of same-label groups (each a few word ops).
//
// The index wins when side activates few, selective rules; the scan wins on
// dense patterns whose rules occur in most groups.
func (t *Tracer) traceInto(side *bitset.Set, denom float64, label int, counts []int, sc *traceScratch) []int32 {
	if denom <= 0 {
		t.obs.EarlyRejects.Inc()
		return nil
	}
	need := t.cfg.TauW*denom - 1e-12
	// No indexed group of this label can reach the threshold: the
	// precomputed per-group totals bound every possible overlap.
	if t.v.maxTotal[label] < need {
		t.obs.EarlyRejects.Inc()
		return nil
	}
	weights := t.rs.Weights()
	cand := t.v.byLabel[label]
	postingWork := 0
	side.ForEach(func(r int) { postingWork += len(t.v.postings[r]) })

	matched := sc.matched[:0]
	// A posting entry (branch + float add) costs a few times more than one
	// word of a bit-parallel intersect; 2x scan size is the measured
	// break-even on word-sized rule sets.
	if postingWork <= 2*len(cand) {
		t.obs.IndexQueries.Inc()
		sc.gen++
		if sc.gen == 0 { // generation counter wrapped: clear stamps once
			for i := range sc.stamp {
				sc.stamp[i] = 0
			}
			sc.gen = 1
		}
		gen := sc.gen
		touched := sc.touched[:0]
		side.ForEach(func(r int) {
			w := weights[r]
			for _, u := range t.v.postings[r] {
				if sc.stamp[u] != gen {
					sc.stamp[u] = gen
					sc.acc[u] = w
					touched = append(touched, u)
				} else {
					sc.acc[u] += w
				}
			}
		})
		for _, u := range touched {
			if int(t.v.label[u]) == label {
				if sc.acc[u] >= need {
					matched = append(matched, u)
				}
			}
		}
		sc.touched = touched
	} else {
		t.obs.ScanQueries.Inc()
		for _, u := range cand {
			if side.WeightedIntersect(t.v.pat[u], weights) >= need {
				matched = append(matched, u)
			}
		}
	}
	for _, u := range matched {
		hist := t.hist[int(u)*t.numParts : (int(u)+1)*t.numParts]
		for i, h := range hist {
			counts[i] += int(h)
		}
	}
	sc.matched = matched
	return matched
}

// accumulate updates the interpretability counters for one test instance.
func (t *Tracer) accumulate(res *Result, te int, side, trueSide *bitset.Set, out traceOut) {
	weights := t.rs.Weights()
	correct := res.Pred[te] == res.Truth[te]
	totalRelated := 0
	for _, c := range out.counts {
		totalRelated += c
	}
	// Weighted rule activation counts per participant (Section IV-B):
	// rules with higher weights are prioritized.
	side.ForEach(func(ri int) {
		w := weights[ri]
		for pi, c := range out.counts {
			if c == 0 {
				continue
			}
			credit := w * float64(c)
			if correct {
				res.beneficialFreq[pi].add(ri, credit)
			} else {
				res.harmfulFreq[pi].add(ri, credit)
			}
		}
	})
	// Misclassified with insufficient coverage → record the true-class rules
	// that fired without training support, to guide data collection.
	if !correct && totalRelated < t.cfg.Delta {
		trueSide.ForEach(func(ri int) {
			res.uncoveredRuleFreq.add(ri, weights[ri])
		})
	}
}
