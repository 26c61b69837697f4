package mbac

import (
	"testing"

	"eac/internal/netsim"
	"eac/internal/sim"
)

func TestAdmitOnIdleLink(t *testing.T) {
	m := New(10e6, Config{Target: 0.9})
	if !m.Admit(0, 128e3) {
		t.Fatal("idle link rejected a small flow")
	}
}

func TestRejectWhenOverTarget(t *testing.T) {
	m := New(1e6, Config{Target: 0.9})
	// Reserve 800 kb/s through boosts: 6 flows * 128k = 768k admitted,
	// the 8th pushes past 900k and must be rejected.
	n := 0
	for i := 0; i < 10; i++ {
		if m.Admit(0, 128e3) {
			n++
		}
	}
	if n != 7 {
		t.Fatalf("admitted %d flows, want 7 (7*128k=896k <= 900k)", n)
	}
}

func TestSerializedBackToBackRequests(t *testing.T) {
	// Two simultaneous requests where only one fits: exactly one must be
	// admitted — the serialization property the paper contrasts with
	// endpoint designs.
	m := New(1e6, Config{Target: 1.0})
	a := m.Admit(0, 600e3)
	b := m.Admit(0, 600e3)
	if !a || b {
		t.Fatalf("admissions = %v,%v; want true,false", a, b)
	}
}

func TestTapMeasuresLoad(t *testing.T) {
	m := New(1e6, Config{Target: 0.9})
	tap := m.Tap()
	// 500 kb/s of data for 2 seconds: 500 packets of 125 bytes per second.
	for i := 0; i < 1000; i++ {
		now := sim.Time(i) * 2 * sim.Millisecond
		tap(now, &netsim.Packet{Size: 125, Kind: netsim.Data})
	}
	got := m.Load(2 * sim.Second)
	if got < 450e3 || got > 550e3 {
		t.Fatalf("load estimate = %v, want ~500k", got)
	}
	// A flow that would push past target is rejected, a smaller one fits.
	if m.Admit(2*sim.Second, 500e3) {
		t.Fatal("admitted past target")
	}
	if !m.Admit(2*sim.Second, 300e3) {
		t.Fatal("rejected a fitting flow")
	}
}

func TestTapIgnoresProbes(t *testing.T) {
	m := New(1e6, Config{Target: 0.9})
	tap := m.Tap()
	for i := 0; i < 1000; i++ {
		tap(sim.Time(i)*sim.Millisecond, &netsim.Packet{Size: 125, Kind: netsim.Probe})
	}
	if got := m.Load(sim.Second); got != 0 {
		t.Fatalf("probe packets contributed %v to the load estimate", got)
	}
}

func TestBoostExpiresAfterWindow(t *testing.T) {
	m := New(1e6, Config{Target: 0.9})
	if !m.Admit(0, 500e3) {
		t.Fatal("first admit failed")
	}
	// Immediately after admission the boost blocks an equal flow.
	if m.Admit(0, 500e3) {
		t.Fatal("boost did not hold")
	}
	// If the admitted flow never sends, after the 1 s window the boost
	// retires and capacity frees up.
	if !m.Admit(2*sim.Second, 500e3) {
		t.Fatal("boost never expired")
	}
}

func TestAdmitPathAllOrNothing(t *testing.T) {
	h1 := New(1e6, Config{Target: 1.0})
	h2 := New(1e6, Config{Target: 1.0})
	// Preload hop 2 to near capacity.
	if !h2.Admit(0, 900e3) {
		t.Fatal("preload failed")
	}
	// A 200k path request fails at hop 2 and must roll back hop 1.
	if AdmitPath(0, 200e3, []*MeasuredSum{h1, h2}) {
		t.Fatal("path admitted past hop-2 capacity")
	}
	// Hop 1 must not retain the failed reservation: a full-capacity flow
	// still fits there.
	if !h1.Admit(0, 1000e3) {
		t.Fatal("failed path admission leaked a reservation at hop 1")
	}
}

func TestAdmitPathSuccessReservesEverywhere(t *testing.T) {
	h1 := New(1e6, Config{Target: 1.0})
	h2 := New(1e6, Config{Target: 1.0})
	if !AdmitPath(0, 600e3, []*MeasuredSum{h1, h2}) {
		t.Fatal("path admission failed on idle hops")
	}
	if h1.Admit(0, 600e3) || h2.Admit(0, 600e3) {
		t.Fatal("successful path admission did not reserve at both hops")
	}
}

// TestConfigDefaults pins the estimator to Measured Sum's S = 100 ms,
// T = 1 s, which no Config field overrides.
func TestConfigDefaults(t *testing.T) {
	if samplePeriod != 0.1 || windowPeriods != 10 {
		t.Fatalf("estimator S = %v s over %d periods, want 0.1 s over 10", samplePeriod, windowPeriods)
	}
}

func TestNewPanicsWithoutTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1e6, Config{})
}
