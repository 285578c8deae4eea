package schedcache

import (
	"testing"
	"testing/quick"

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
	got, ok := c.Lookup(1, 50)
	if !ok || got != s {
		t.Error("inserted schedule not found")
	}
	if _, ok := c.Lookup(2, 50); ok {
		t.Error("phantom schedule found")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Instructions != 100 {
		t.Errorf("stats %+v", st)
	}
}

func TestMPKI(t *testing.T) {
	c := New(0)
	c.Insert(sched(1, 50))
	for i := 0; i < 9; i++ {
		c.Lookup(1, 50) // hits
	}
	c.Lookup(99, 50) // miss
	mpki := c.Stats().MPKI()
	want := 1.0 * 1000 / 500
	if mpki != want {
		t.Errorf("MPKI %v, want %v", mpki, want)
	}
	if (Stats{}).MPKI() != 0 {
		t.Error("empty stats MPKI should be 0")
	}
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
	if c.Stats().Evictions == 0 {
		t.Error("no evictions despite overflow")
	}
}

func TestLRUVictimSelection(t *testing.T) {
	c := New(700) // fits three 220-byte schedules
	c.Insert(sched(1, 50))
	c.Insert(sched(2, 50))
	c.Insert(sched(3, 50))
	c.Lookup(1, 50) // touch 1; 2 is now LRU
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
	c.Lookup(2, 50)
	c.Lookup(3, 50)
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
	if _, ok := c.Lookup(7, 50); ok {
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
			s, ok := c.Lookup(id, 0)
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
