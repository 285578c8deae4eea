package isa

import "testing"

func TestClassString(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if s := c.String(); s == "" || s[0] == 'C' {
			t.Errorf("class %d has no name: %q", c, s)
		}
	}
	if s := Class(200).String(); s != "Class(200)" {
		t.Errorf("unknown class formats as %q", s)
	}
}

func TestIsMem(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		want := c == Load || c == Store
		if c.IsMem() != want {
			t.Errorf("%v.IsMem() = %v", c, c.IsMem())
		}
	}
}

func TestRegPredicates(t *testing.T) {
	cases := []struct {
		r     Reg
		valid bool
	}{
		{0, true},
		{NumIntRegs - 1, true},
		{NumIntRegs, true},
		{NumRegs - 1, true},
		{NumRegs, false},
		{NoReg, false},
	}
	for _, c := range cases {
		if c.r.Valid() != c.valid {
			t.Errorf("Reg(%d).Valid() = %v, want %v", c.r, c.r.Valid(), c.valid)
		}
	}
}

func TestLatenciesPositive(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if Latency[c] <= 0 {
			t.Errorf("%v latency %d, want > 0", c, Latency[c])
		}
	}
}

func TestLongOpsUnpipelined(t *testing.T) {
	if Pipelined[IntDiv] || Pipelined[FPDiv] {
		t.Error("divides must be unpipelined")
	}
	if !Pipelined[IntALU] || !Pipelined[Load] {
		t.Error("simple ops must be pipelined")
	}
}

func TestUnitForCoversAllClasses(t *testing.T) {
	want := map[Class]FU{
		IntALU: FUIntALU, Branch: FUIntALU,
		IntMul: FUIntMulDiv, IntDiv: FUIntMulDiv,
		FPAdd: FUFP, FPMul: FUFP, FPDiv: FUFP,
		Load: FUMem, Store: FUMem,
	}
	for c, u := range want {
		if got := UnitFor(c); got != u {
			t.Errorf("UnitFor(%v) = %v, want %v", c, got, u)
		}
	}
}

func TestFUCountsPositive(t *testing.T) {
	total := 0
	for u := FU(0); u < NumFUs; u++ {
		if FUCount[u] <= 0 {
			t.Errorf("FU pool %d empty", u)
		}
		total += FUCount[u]
	}
	if total < IssueWidth {
		t.Errorf("total FU count %d below issue width %d", total, IssueWidth)
	}
}

func TestInstHasDst(t *testing.T) {
	if (Inst{Op: Store, Dst: NoReg}).HasDst() {
		t.Error("store should have no destination")
	}
	if !(Inst{Op: IntALU, Dst: 3}).HasDst() {
		t.Error("ALU op with Dst=3 should have a destination")
	}
}

func TestTable2Constants(t *testing.T) {
	// Pin the paper's Table 2 parameters: changing them silently would
	// invalidate every experiment.
	if IssueWidth != 3 || ROBSize != 128 || OoOPipelineDepth != 12 || InOPipelineDepth != 8 {
		t.Error("core pipeline constants deviate from Table 2")
	}
	if OinOMaxVersions != 4 || OinOLSQSize != 32 || OinOPRFEntries != 128 {
		t.Error("OinO mode constants deviate from Section 3.3.2")
	}
}
