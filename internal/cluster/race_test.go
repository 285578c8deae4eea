package cluster

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/arbiter"
	"repro/internal/memo"
)

// TestConcurrentRunsIdentical runs one Mirage configuration twice at once,
// in three rounds. The first round's hierarchies are first sightings and
// walk for real; the second's record their walks in the process-wide walk
// memo, both runs racing to insert the same entries; the third's answer
// every walk from it while the other run reads the same entries. Every
// result must be byte-identical to one run alone with the memos empty.
// Run it under -race.
func TestConcurrentRunsIdentical(t *testing.T) {
	run := func() []byte {
		cfg := small(apps("hmmer", "mcf", "bzip2"))
		cfg.TargetInsts = 100_000
		cfg.HasOoO, cfg.Memoize = true, true
		cfg.Arbiter = arbiter.NewFair() // migrates every interval: flushes on every path
		cl, err := New(cfg)
		if err != nil {
			t.Error(err)
			return nil
		}
		res, err := cl.Run()
		if err != nil {
			t.Error(err)
			return nil
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Error(err)
		}
		return b
	}
	memo.Reset()
	defer memo.Reset()
	want := run()
	memo.Reset()
	for round := 1; round <= 3; round++ {
		var got [2][]byte
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = run()
			}()
		}
		wg.Wait()
		for i, g := range got {
			if !bytes.Equal(g, want) {
				t.Fatalf("round %d run %d: result differs from a lone run:\n%s\nwant\n%s", round, i, g, want)
			}
		}
	}
}
