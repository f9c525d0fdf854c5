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
// through the activated rules of a trained rule-based model.
type Tracer struct {
	cfg Config
	// obs is cfg.Obs or an inert zero value, so instrumentation sites
	// never need a nil check on the struct itself.
	obs *Obs
	rs  *rules.Set

	numParts int
	// Per training instance: owner participant index, label, and class-side
	// activation bitset (restricted to the rules supporting its own label).
	trainOwner []int
	trainLabel []int
	trainActs  []*bitset.Set
	// trainByLabel[l] lists training indices with label l.
	trainByLabel [2][]int

	// Tracing index, built once by buildIndex. Eq. 4 is a pure function of
	// a training instance's class-side activation pattern, and real
	// federations repeat patterns heavily, so the index deduplicates
	// training instances into unique (label, pattern) groups and answers
	// every query over those:
	//
	//	upat[u], uLabel[u], uTotal[u]  unique pattern, its label and its
	//	                               precomputed weighted activation total
	//	                               (the largest overlap it can reach)
	//	uHist[u*numParts:...]          per-owner instance counts of group u
	//	uMembers[u]                    training instance ids of group u
	//	uByLabel[l]                    unique ids with label l, ascending
	//	postings[r]                    unique ids whose pattern includes rule
	//	                               r, ascending (the inverted index)
	//	maxTotal[l]                    max of uTotal over label l — patterns
	//	                               whose Eq. 4 threshold exceeds it are
	//	                               rejected without touching anything
	upat     []*bitset.Set
	uLabel   []int32
	uTotal   []float64
	uHist    []int32
	uMembers [][]int32
	uByLabel [2][]int32
	postings [][]int32
	maxTotal [2]float64

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
	var uploads []TrainingUpload
	for pi, p := range parts {
		acts, _ := rs.ActivationsTable(p.Data)
		for i, a := range acts {
			uploads = append(uploads, TrainingUpload{
				Owner:       pi,
				Label:       p.Data.Instances[i].Label,
				Activations: a,
			})
		}
	}
	return NewTracerFromUploads(rs, len(parts), uploads, cfg)
}

// NewTracerFromUploads builds a tracer directly from uploaded activation
// vectors — the entry point a real federation server would use after
// decoding participants' protocol messages. Upload activation sets are
// owned by the tracer afterwards (they are masked in place).
func NewTracerFromUploads(rs *rules.Set, numParts int, uploads []TrainingUpload, cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	if cfg.TauW <= 0 || cfg.TauW > 1 {
		panic(fmt.Sprintf("core: TauW must be in (0,1], got %v", cfg.TauW))
	}
	t := &Tracer{cfg: cfg, obs: cfg.Obs, rs: rs, numParts: numParts}
	if t.obs == nil {
		t.obs = &Obs{}
	}
	buildStart := time.Now()
	for _, u := range uploads {
		if u.Owner < 0 || u.Owner >= numParts {
			panic(fmt.Sprintf("core: upload owner %d out of range [0,%d)", u.Owner, numParts))
		}
		if u.Label != 0 && u.Label != 1 {
			panic(fmt.Sprintf("core: upload label %d invalid", u.Label))
		}
		side := u.Activations.And(rs.ClassMask(u.Label))
		idx := len(t.trainActs)
		t.trainOwner = append(t.trainOwner, u.Owner)
		t.trainLabel = append(t.trainLabel, u.Label)
		t.trainActs = append(t.trainActs, side)
		t.trainByLabel[u.Label] = append(t.trainByLabel[u.Label], idx)
	}
	t.buildIndex()
	t.obs.BuildSeconds.ObserveSince(buildStart)
	t.obs.UniqueGroups.Set(float64(len(t.upat)))
	return t
}

// buildIndex deduplicates the training instances into unique (label,
// class-side pattern) groups and constructs the rule → group posting lists,
// per-group owner histograms and member lists, and per-group weighted
// totals. All slabs are carved from contiguous backing arrays.
func (t *Tracer) buildIndex() {
	width := t.rs.Width()
	weights := t.rs.Weights()

	// 1. Dedupe training patterns by raw (label, words) key.
	idByKey := map[string]int32{}
	var keyBuf []byte
	uid := make([]int32, len(t.trainActs))
	for j, a := range t.trainActs {
		keyBuf = append(keyBuf[:0], byte(t.trainLabel[j]))
		keyBuf = a.AppendKey(keyBuf)
		id, ok := idByKey[string(keyBuf)]
		if !ok {
			id = int32(len(t.upat))
			idByKey[string(keyBuf)] = id
			l := t.trainLabel[j]
			t.upat = append(t.upat, a)
			t.uLabel = append(t.uLabel, int32(l))
			t.uByLabel[l] = append(t.uByLabel[l], id)
		}
		uid[j] = id
	}
	nu := len(t.upat)

	// 2. Owner histograms and member lists per unique group.
	t.uHist = make([]int32, nu*t.numParts)
	sizes := make([]int32, nu)
	for j := range t.trainActs {
		t.uHist[int(uid[j])*t.numParts+t.trainOwner[j]]++
		sizes[uid[j]]++
	}
	memberSlab := make([]int32, len(t.trainActs))
	t.uMembers = make([][]int32, nu)
	off := 0
	for u, c := range sizes {
		t.uMembers[u] = memberSlab[off : off : off+int(c)]
		off += int(c)
	}
	for j := range t.trainActs {
		t.uMembers[uid[j]] = append(t.uMembers[uid[j]], int32(j))
	}

	// 3. Inverted index over unique patterns, plus weighted totals.
	ruleCount := make([]int32, width)
	incidences := 0
	for _, a := range t.upat {
		a.ForEach(func(r int) {
			ruleCount[r]++
			incidences++
		})
	}
	postSlab := make([]int32, incidences)
	t.postings = make([][]int32, width)
	off = 0
	for r, c := range ruleCount {
		t.postings[r] = postSlab[off : off : off+int(c)]
		off += int(c)
	}
	t.uTotal = make([]float64, nu)
	t.maxTotal = [2]float64{}
	for u, a := range t.upat {
		tot := 0.0
		a.ForEach(func(r int) {
			t.postings[r] = append(t.postings[r], int32(u))
			tot += weights[r]
		})
		t.uTotal[u] = tot
		if l := t.uLabel[u]; tot > t.maxTotal[l] {
			t.maxTotal[l] = tot
		}
	}
	t.scratch = sync.Pool{New: func() any {
		return &traceScratch{acc: make([]float64, nu), stamp: make([]uint32, nu)}
	}}
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

func (t *Tracer) getScratch() *traceScratch  { return t.scratch.Get().(*traceScratch) }
func (t *Tracer) putScratch(sc *traceScratch) { t.scratch.Put(sc) }

// NumParticipants returns the number of indexed participants.
func (t *Tracer) NumParticipants() int { return t.numParts }

// NumTraining returns the number of indexed training instances.
func (t *Tracer) NumTraining() int { return len(t.trainActs) }

// Config returns the tracer's effective configuration.
func (t *Tracer) Config() Config { return t.cfg }

// Rules returns the rule set the tracer operates on.
func (t *Tracer) Rules() *rules.Set { return t.rs }

// TrainOwner returns the participant index owning training instance j.
func (t *Tracer) TrainOwner(j int) int { return t.trainOwner[j] }

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
	// TrainMatched[j] counts how many test instances training instance j was
	// related to (drives the useless-data ratio).
	TrainMatched []int

	tracer *Tracer
	// beneficialFreq[i][r] accumulates weighted rule-activation credit of
	// rule r for participant i over correctly classified matches;
	// harmfulFreq likewise over misclassifications.
	beneficialFreq []map[int]float64
	harmfulFreq    []map[int]float64
	// uncoveredRuleFreq[r] accumulates weighted activations over
	// misclassified test instances with insufficient related data — the
	// data-collection guidance signal of Section IV-B.
	uncoveredRuleFreq map[int]float64
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
// for each test instance it determines the related training instances on
// the predicted-class side (TP/TN for correct predictions earn credit,
// FP/FN feed the loss analysis) and accumulates interpretability counters.
func (t *Tracer) Trace(test *dataset.Table) *Result {
	traceStart := time.Now()
	acts, pred := t.rs.ActivationsTable(test)
	res := &Result{
		NumParticipants:   t.numParts,
		TestSize:          test.Len(),
		Pred:              pred,
		Truth:             make([]int, test.Len()),
		Counts:            make([][]int, test.Len()),
		TrainMatched:      make([]int, len(t.trainActs)),
		tracer:            t,
		beneficialFreq:    newFreqMaps(t.numParts),
		harmfulFreq:       newFreqMaps(t.numParts),
		uncoveredRuleFreq: make(map[int]float64),
	}
	for i, in := range test.Instances {
		res.Truth[i] = in.Label
	}

	weights := t.rs.Weights()
	sideActs := make([]*bitset.Set, test.Len())
	sideWeight := make([]float64, test.Len())
	for i, a := range acts {
		side := a.AndInto(t.rs.ClassMask(pred[i]), nil)
		sideActs[i] = side
		sideWeight[i] = side.WeightedCount(weights)
	}

	// Dedupe identical (predicted label, side pattern) groups. The key is
	// the raw word encoding of the pattern prefixed by the predicted label —
	// no formatting, and the map lookup on string(keyBuf) does not allocate.
	byKey := map[string]*patternGroup{}
	var order []*patternGroup
	var keyBuf []byte
	for i := range sideActs {
		keyBuf = keyBuf[:0]
		keyBuf = append(keyBuf, byte(pred[i]))
		keyBuf = sideActs[i].AppendKey(keyBuf)
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
	t.obs.PatternDedupHits.Add(int64(test.Len() - len(order)))

	outs := make([]traceOut, len(order))
	var wg sync.WaitGroup
	sem := make(chan struct{}, t.cfg.Workers)
	for gi, g := range order {
		wg.Add(1)
		sem <- struct{}{}
		go func(gi int, g *patternGroup) {
			defer wg.Done()
			defer func() { <-sem }()
			outs[gi] = t.traceOne(sideActs[g.rep], sideWeight[g.rep], pred[g.rep])
		}(gi, g)
	}
	wg.Wait()

	// One contiguous slab for all Counts rows; each test instance gets its
	// own copy of its group's counts (no shared backing between rows).
	slab := make([]int, test.Len()*t.numParts)
	var trueSide *bitset.Set
	for gi, g := range order {
		out := outs[gi]
		for _, te := range g.members {
			row := slab[te*t.numParts : (te+1)*t.numParts : (te+1)*t.numParts]
			copy(row, out.counts)
			res.Counts[te] = row
			for _, u := range out.matched {
				for _, j := range t.uMembers[u] {
					res.TrainMatched[j]++
				}
			}
			trueSide = acts[te].AndInto(t.rs.ClassMask(res.Truth[te]), trueSide)
			t.accumulate(res, te, sideActs[te], trueSide, out)
		}
	}
	t.obs.TraceSeconds.ObserveSince(traceStart)
	return res
}

// TraceActivations runs Eq. 4 for one explicit class-side activation set:
// it returns the per-participant related-instance counts among training
// uploads of the given label. This is the low-level primitive used by the
// one-vs-rest multi-class extension (internal/multiclass), which supplies
// its own prediction logic and therefore cannot use Trace directly.
func (t *Tracer) TraceActivations(side *bitset.Set, label int) []int {
	denom := side.WeightedCount(t.rs.Weights())
	return t.traceOne(side, denom, label).counts
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
	if t.maxTotal[label] < need {
		t.obs.EarlyRejects.Inc()
		return nil
	}
	weights := t.rs.Weights()
	cand := t.uByLabel[label]
	postingWork := 0
	side.ForEach(func(r int) { postingWork += len(t.postings[r]) })

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
			for _, u := range t.postings[r] {
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
			if int(t.uLabel[u]) == label {
				if sc.acc[u] >= need {
					matched = append(matched, u)
				}
			}
		}
		sc.touched = touched
	} else {
		t.obs.ScanQueries.Inc()
		for _, u := range cand {
			if side.WeightedIntersect(t.upat[u], weights) >= need {
				matched = append(matched, u)
			}
		}
	}
	for _, u := range matched {
		hist := t.uHist[int(u)*t.numParts : (int(u)+1)*t.numParts]
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
				res.beneficialFreq[pi][ri] += credit
			} else {
				res.harmfulFreq[pi][ri] += credit
			}
		}
	})
	// Misclassified with insufficient coverage → record the true-class rules
	// that fired without training support, to guide data collection.
	if !correct && totalRelated < t.cfg.Delta {
		trueSide.ForEach(func(ri int) {
			res.uncoveredRuleFreq[ri] += weights[ri]
		})
	}
}

func newFreqMaps(n int) []map[int]float64 {
	out := make([]map[int]float64, n)
	for i := range out {
		out[i] = make(map[int]float64)
	}
	return out
}
