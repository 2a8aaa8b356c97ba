package cpu

import (
	"testing"

	"repro/internal/trace"
)

func TestPredictorLearnsBias(t *testing.T) {
	p := NewBranchPredictor()
	// A strongly biased branch becomes near-perfectly predicted.
	for i := 0; i < 2000; i++ {
		p.PredictAndTrain(0x400100, true)
	}
	before := p.Mispredicts
	for i := 0; i < 1000; i++ {
		p.PredictAndTrain(0x400100, true)
	}
	if p.Mispredicts != before {
		t.Fatalf("mispredicted a fully biased branch %d times after training",
			p.Mispredicts-before)
	}
}

func TestPredictorLearnsPattern(t *testing.T) {
	p := NewBranchPredictor()
	// A short repeating pattern (TTN) is history-predictable; perceptrons
	// must learn it where a bimodal counter could not.
	pattern := []bool{true, true, false}
	for i := 0; i < 6000; i++ {
		p.PredictAndTrain(0x400200, pattern[i%3])
	}
	before := p.Mispredicts
	for i := 0; i < 3000; i++ {
		p.PredictAndTrain(0x400200, pattern[i%3])
	}
	rate := float64(p.Mispredicts-before) / 3000
	if rate > 0.05 {
		t.Fatalf("mispredict rate %.3f on a learnable pattern", rate)
	}
}

func TestPredictorStruggling(t *testing.T) {
	p := NewBranchPredictor()
	// Uncorrelated pseudo-random outcomes: no predictor beats ~50%.
	x := uint64(7)
	miss := uint64(0)
	const n = 20000
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		before := p.Mispredicts
		p.PredictAndTrain(0x400300, x>>40&1 == 1)
		miss += p.Mispredicts - before
	}
	rate := float64(miss) / n
	if rate < 0.30 {
		t.Fatalf("mispredict rate %.3f on random outcomes; predictor is cheating", rate)
	}
	if p.MispredictRate() != rate {
		t.Fatal("MispredictRate accessor disagrees")
	}
}

func TestMispredictStallsFrontEnd(t *testing.T) {
	// Two runs of the same branch-heavy trace: one with predictable
	// branches, one with random outcomes. The random one must take longer.
	mkTrace := func(random bool) *trace.SliceReader {
		ins := make([]trace.Instr, 6000)
		x := uint64(3)
		for i := range ins {
			if i%3 == 2 {
				taken := true
				if random {
					x = x*6364136223846793005 + 1
					taken = x>>40&1 == 1
				}
				ins[i] = trace.Instr{PC: 0x400000 + uint64(i%30)*4, Kind: trace.Branch,
					Addr: 0x400000, Taken: taken}
			} else {
				ins[i] = trace.Instr{PC: 0x400000 + uint64(i%30)*4, Kind: trace.Op}
			}
		}
		return trace.NewSliceReader(ins)
	}
	run := func(random bool) *Core {
		c, err := New(DefaultConfig(), fastPorts())
		if err != nil {
			t.Fatal(err)
		}
		c.Attach(mkTrace(random), 6000)
		runAll(c)
		return c
	}
	easy := run(false)
	hard := run(true)
	if hard.Stats.Mispredicts <= easy.Stats.Mispredicts {
		t.Fatalf("random branches mispredicted %d <= biased %d",
			hard.Stats.Mispredicts, easy.Stats.Mispredicts)
	}
	if hard.Stats.Cycles <= easy.Stats.Cycles {
		t.Fatalf("mispredictions cost nothing: %d vs %d cycles",
			hard.Stats.Cycles, easy.Stats.Cycles)
	}
	if easy.Stats.Branches != 2000 {
		t.Fatalf("branches = %d", easy.Stats.Branches)
	}
}
