package schedcache

import (
	"testing"
	"testing/quick"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

func sched(id trace.ID, insts int) *trace.Schedule {
	return &trace.Schedule{TraceID: id, Span: 1, Order: make([]uint16, insts)}
}

func TestInsertLookup(t *testing.T) {
	c := New(0)
	if c.Capacity() != DefaultCapacityBytes {
		t.Errorf("default capacity %d", c.Capacity())
	}
	s := sched(1, 50)
	if err := c.Insert(s); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Lookup(1)
	if !ok || got != s {
		t.Error("inserted schedule not found")
	}
	if _, ok := c.Lookup(2); ok {
		t.Error("phantom schedule found")
	}
	if c.hits != 1 || c.misses != 1 {
		t.Errorf("hits %d misses %d, want 1 and 1", c.hits, c.misses)
	}
}

// TestPublishTelemetry: the run totals reach the registry once, under the
// given prefix, as one counter per total.
func TestPublishTelemetry(t *testing.T) {
	c := New(700) // fits three 220-byte schedules
	for id := trace.ID(1); id <= 4; id++ {
		c.Insert(sched(id, 50)) // the fourth evicts one
	}
	for i := 0; i < 9; i++ {
		c.Lookup(4) // hits
	}
	c.Lookup(99) // miss
	reg := telemetry.NewRegistry()
	c.PublishTelemetry(reg, "core0.sc")
	got := reg.Snapshot().Counters
	want := map[string]int64{
		"core0.sc.hits":          9,
		"core0.sc.misses":        1,
		"core0.sc.inserts":       4,
		"core0.sc.evictions":     1,
		"core0.sc.bytes_written": 4 * 220,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %d, want %d", name, got[name], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("published %v, want exactly %v", got, want)
	}
	c.PublishTelemetry(nil, "core0.sc") // a nil registry is a no-op
}

func TestCapacityEviction(t *testing.T) {
	c := New(1024)
	// Each 50-inst schedule is 220 B; five fit in 1024 B at most 4.
	for id := trace.ID(1); id <= 6; id++ {
		if err := c.Insert(sched(id, 50)); err != nil {
			t.Fatal(err)
		}
		if c.UsedBytes() > c.Capacity() {
			t.Fatalf("over capacity: %d > %d", c.UsedBytes(), c.Capacity())
		}
	}
	if c.evictions == 0 {
		t.Error("no evictions despite overflow")
	}
}

func TestLRUVictimSelection(t *testing.T) {
	c := New(700) // fits three 220-byte schedules
	c.Insert(sched(1, 50))
	c.Insert(sched(2, 50))
	c.Insert(sched(3, 50))
	c.Lookup(1) // touch 1; 2 is now LRU
	c.Insert(sched(4, 50))
	if c.Contains(2) {
		t.Error("LRU entry 2 should have been evicted")
	}
	if !c.Contains(1) || !c.Contains(3) || !c.Contains(4) {
		t.Error("wrong victim evicted")
	}
}

func TestUnmemoizableEvictedFirst(t *testing.T) {
	c := New(700)
	c.Insert(sched(1, 50))
	c.Insert(sched(2, 50))
	c.Insert(sched(3, 50))
	c.Lookup(2)
	c.Lookup(3)
	c.MarkUnmemoizable(3) // newest use, but flagged
	c.Insert(sched(4, 50))
	if c.Contains(3) {
		t.Error("unmemoizable entry should be evicted before LRU entries")
	}
	if !c.Contains(1) || !c.Contains(2) {
		t.Error("memoizable entries evicted ahead of an unmemoizable one")
	}
}

func TestUnmemoizableLookupMisses(t *testing.T) {
	c := New(0)
	c.Insert(sched(7, 50))
	c.MarkUnmemoizable(7)
	if _, ok := c.Lookup(7); ok {
		t.Error("unmemoizable schedule served")
	}
}

func TestTooBigScheduleRejected(t *testing.T) {
	c := New(128)
	if err := c.Insert(sched(1, 500)); err == nil {
		t.Error("schedule larger than the SC accepted")
	}
}

func TestReinsertReplaces(t *testing.T) {
	c := New(0)
	c.Insert(sched(5, 50))
	used := c.UsedBytes()
	c.Insert(sched(5, 50))
	if c.UsedBytes() != used || c.Len() != 1 {
		t.Errorf("reinsert changed accounting: used %d len %d", c.UsedBytes(), c.Len())
	}
}

func TestFlush(t *testing.T) {
	c := New(0)
	c.Insert(sched(1, 50))
	c.Flush()
	if c.Len() != 0 || c.UsedBytes() != 0 {
		t.Error("flush left residue")
	}
}

func TestCopyFrom(t *testing.T) {
	src := New(0)
	src.Insert(sched(1, 50))
	src.Insert(sched(2, 30))
	src.MarkUnmemoizable(2)
	dst := New(0)
	dst.Insert(sched(9, 40)) // must be replaced wholesale
	moved := dst.CopyFrom(src)
	if !dst.Contains(1) {
		t.Error("transferred schedule missing")
	}
	if dst.Contains(2) {
		t.Error("unmemoizable schedule transferred")
	}
	if dst.Contains(9) {
		t.Error("stale destination contents survived transfer")
	}
	if moved != sched(1, 50).SizeBytes() {
		t.Errorf("moved %d bytes", moved)
	}
}

func TestIDs(t *testing.T) {
	c := New(0)
	c.Insert(sched(3, 10))
	c.Insert(sched(8, 10))
	ids := c.IDs()
	if len(ids) != 2 {
		t.Errorf("IDs() returned %v", ids)
	}
}

func TestUsedBytesInvariant(t *testing.T) {
	// Property: after arbitrary insert sequences, UsedBytes equals the sum
	// of resident schedule sizes and never exceeds capacity.
	err := quick.Check(func(lens []uint8) bool {
		c := New(2048)
		for i, l := range lens {
			n := int(l%60) + 1
			if err := c.Insert(sched(trace.ID(i), n)); err != nil {
				return false
			}
		}
		sum := 0
		for _, id := range c.IDs() {
			s, ok := c.Lookup(id)
			if !ok {
				return false
			}
			sum += s.SizeBytes()
		}
		return sum == c.UsedBytes() && c.UsedBytes() <= c.Capacity()
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}
