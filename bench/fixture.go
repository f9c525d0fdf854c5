package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/fedsim"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/rules"
	"repro/internal/stats"
)

// Fixture sizes. Every workload shares one fixture generated from -seed; the
// server only ever sees the bytes built here.
const (
	trainRows     = 32000 // training records, preloaded as upload frames
	poolRows      = 8000  // held-out pool: eval set, predict rows, trace test sets
	participants  = 8
	frameRecords  = 8   // records per upload frame
	fedsimRounds  = 16  // round updates cycled by the stream workload
	fedsimRows    = 400 // per-participant rows the fedsim clients train on
	evalRows      = 128 // streaming eval set
	predictRows   = 64  // rows per binary predict batch
	predictSets   = 16  // distinct predict batches cycled by live
	traceRows     = 1000
	dashboardRows = 1000
	preloadBatch  = 256 // frames per preload request
)

// csvOptions is how the server parses every CSV body (trace test sets and
// the eval set); the in-process references parse the same bytes the same way.
func csvOptions(enc *dataset.Encoder) dataset.CSVOptions {
	return dataset.CSVOptions{
		HasHeader:       true,
		PositiveLabel:   enc.Schema().Labels[1],
		TrimSpace:       true,
		ClampContinuous: true,
	}
}

type fixture struct {
	enc      *dataset.Encoder
	encJSON  []byte
	model    *nn.Model
	modelBin []byte
	rs       *rules.Set
	bin      *nn.Binarized

	frames    [][]byte                      // upload frames covering every training record
	frameRecs []int                         // records in each frame
	records   int                           // training records across frames
	rounds    [][]protocol.RoundParticipant // fedsim round updates, in round order
	evalCSV   []byte

	csvHeader []byte   // pool CSV header line, newline included
	csvLines  [][]byte // one rendered pool row each, newline included

	preload     [][]byte    // the frames concatenated into POST /v1/uploads batch bodies
	predictBody [][]byte    // predictSets binary predict frames of predictRows rows
	predictWant [][]float64 // nn.Binarized.ScoreBatchFloat32 of each batch
	dashboard   []byte      // the live workload's fixed trace test set
}

// federationSeed fixes the published encoder, model and round stream.
// Workloads vary with -seed through the participants' training data, the
// held-out pool and the traffic drawn from it. The model stays fixed so a
// run's cost does not hinge on which rule set a short training happened to
// find: like a serving benchmark, the model is fixed and requests vary.
const federationSeed = 1

func buildFixture(seed int64) (*fixture, error) {
	fr := stats.NewRNG(federationSeed)
	enc, err := dataset.NewEncoder(dataset.AdultSchema(), 8, fr)
	if err != nil {
		return nil, err
	}
	fedParts := fl.PartitionSkewSample(dataset.Adult(fr, participants*fedsimRows), participants, 1.0, fr)
	cfg := nn.Config{Hidden: []int{64}, Grafting: true, Seed: federationSeed, L1Logic: 2e-4, L2Head: 1e-3, KeepBest: true}
	model, err := fl.NewTrainer(enc, fl.TrainConfig{
		Rounds: 4, LocalEpochs: 4, Parallel: true, Model: cfg, Seed: federationSeed,
	}).Train(fedParts)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	sim, err := fedsim.Run(enc, fedParts, dataset.Adult(fr, evalRows), fedsim.Config{
		Rounds: fedsimRounds, LocalEpochs: 1, Model: cfg, Seed: federationSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("fedsim: %w", err)
	}

	r := stats.NewRNG(seed)
	train := dataset.Adult(r, trainRows)
	pool := dataset.Adult(r, poolRows)
	parts := fl.PartitionSkewSample(train, participants, 1.0, r)

	fx := &fixture{}
	if fx.encJSON, err = json.Marshal(enc); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := model.WriteTo(&buf); err != nil {
		return nil, err
	}
	fx.modelBin = buf.Bytes()
	// Everything in-process works from the encoder and model decoded from
	// the published bytes, exactly as the server does.
	fx.enc = new(dataset.Encoder)
	if err := json.Unmarshal(fx.encJSON, fx.enc); err != nil {
		return nil, err
	}
	if fx.model, err = nn.ReadModel(bytes.NewReader(fx.modelBin)); err != nil {
		return nil, err
	}
	fx.rs, fx.bin = rules.Extract(fx.model, fx.enc), fx.model.Binarize()

	for pi, p := range parts {
		acts, _ := fx.rs.ActivationsTable(p.Data)
		for at := 0; at < len(acts); at += frameRecords {
			up := &protocol.Upload{Participant: pi, RuleWidth: fx.rs.Width()}
			for i := at; i < min(at+frameRecords, len(acts)); i++ {
				up.Records = append(up.Records, protocol.Record{Label: p.Data.Instances[i].Label, Activations: acts[i]})
			}
			frame, err := up.Encode()
			if err != nil {
				return nil, err
			}
			fx.frames = append(fx.frames, frame)
			fx.frameRecs = append(fx.frameRecs, len(up.Records))
			fx.records += len(up.Records)
		}
	}
	// Interleave participants so any prefix of the frames (the ingest
	// workload cycles them) spreads over the whole federation.
	r.Shuffle(len(fx.frames), func(i, j int) {
		fx.frames[i], fx.frames[j] = fx.frames[j], fx.frames[i]
		fx.frameRecs[i], fx.frameRecs[j] = fx.frameRecs[j], fx.frameRecs[i]
	})

	for _, ups := range sim.Updates {
		rps := make([]protocol.RoundParticipant, len(ups))
		for i, u := range ups {
			rps[i] = protocol.RoundParticipant{ID: u.Participant, Weight: u.Weight, Params: u.Params}
		}
		fx.rounds = append(fx.rounds, rps)
	}

	var csv bytes.Buffer
	if err := dataset.WriteCSV(&csv, pool); err != nil {
		return nil, err
	}
	lines := bytes.SplitAfter(csv.Bytes(), []byte("\n"))
	fx.csvHeader, fx.csvLines = lines[0], lines[1:1+poolRows]
	fx.evalCSV = fx.testSet(seq(evalRows))
	fx.dashboard = fx.testSet(r.Perm(poolRows)[:dashboardRows])

	for b := 0; b < predictSets; b++ {
		rows := make([]float32, 0, predictRows*fx.enc.Width())
		for _, i := range r.Perm(poolRows)[:predictRows] {
			for _, v := range fx.enc.Encode(pool.Instances[i], nil) {
				rows = append(rows, float32(v))
			}
		}
		want := make([]float64, predictRows)
		fx.bin.ScoreBatchFloat32(rows, want)
		body, err := protocol.AppendPredictRequest(nil, fx.enc.Width(), rows)
		if err != nil {
			return nil, err
		}
		fx.predictBody = append(fx.predictBody, body)
		fx.predictWant = append(fx.predictWant, want)
	}
	for at := 0; at < len(fx.frames); at += preloadBatch {
		fx.preload = append(fx.preload, bytes.Join(fx.frames[at:min(at+preloadBatch, len(fx.frames))], nil))
	}
	return fx, nil
}

// testSet renders the pool rows at idx as one CSV body.
func (fx *fixture) testSet(idx []int) []byte {
	out := append([]byte(nil), fx.csvHeader...)
	for _, i := range idx {
		out = append(out, fx.csvLines[i]...)
	}
	return out
}

// traceSet is the k-th fresh trace test set of the trace workload: a
// seed-drawn traceRows-row sample of the pool. Distinct k give distinct
// bodies, so every job misses the server's result cache.
func (fx *fixture) traceSet(seed int64, k int) []byte {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
	idx := make([]int, traceRows)
	for i := range idx {
		idx[i] = r.Intn(poolRows)
	}
	return fx.testSet(idx)
}

// roundUpdate is the body of the push for round n: the fedsim updates
// cycled under rising round numbers.
func (fx *fixture) roundUpdate(n int) ([]byte, error) {
	return protocol.AppendRoundUpdate(nil, n, fx.rounds[n%len(fx.rounds)])
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
