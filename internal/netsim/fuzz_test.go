package netsim_test

import (
	"testing"

	"eac/internal/conformance/invariants"
	"eac/internal/netsim"
	"eac/internal/sim"
	"eac/internal/stats"
)

// fuzzDiscipline drives one queue discipline with an arbitrary op stream
// under the invariant guard: depth within [0, cap], drop semantics
// well-formed, packets conserved on every operation.
func fuzzDiscipline(t *testing.T, name string, d netsim.Discipline, capPkts int, data []byte) {
	t.Helper()
	var c invariants.Checker
	g := c.Guard(name, d, capPkts)
	now := sim.Time(0)
	for k := 0; k+1 < len(data); k += 2 {
		op, arg := data[k], data[k+1]
		now += sim.Time(arg) * sim.Microsecond
		if op%4 == 3 {
			g.Dequeue()
			continue
		}
		g.Enqueue(now, &netsim.Packet{
			Size: 64 + int32(arg)*8,
			Band: op % netsim.NumBands,
			Kind: netsim.Kind(op % 2),
		})
	}
	for g.Dequeue() != nil {
	}
	enq, deq, drop := g.Counts()
	if deq+drop != enq {
		c.Violationf("%s: drained queue lost packets: enq=%d deq=%d drop=%d", name, enq, deq, drop)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 0, 0, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 255, 1, 128, 3, 0, 3, 0, 3, 0, 2, 1})
}

// FuzzDropTail exercises the drop-tail FIFO.
//
// Run with: go test ./internal/netsim -fuzz FuzzDropTail
func FuzzDropTail(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDiscipline(t, "droptail", netsim.NewDropTail(16), 16, data)
	})
}

// FuzzPriorityPushout exercises the shared-buffer priority queue with
// probe push-out.
//
// Run with: go test ./internal/netsim -fuzz FuzzPriorityPushout
func FuzzPriorityPushout(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDiscipline(t, "pushout", netsim.NewPriorityPushout(16), 16, data)
	})
}

// FuzzRED exercises the RED discipline, including its idle-decay path
// (op streams contain long time gaps).
//
// Run with: go test ./internal/netsim -fuzz FuzzRED
func FuzzRED(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		red := netsim.NewRED(16, netsim.REDConfig{}, stats.NewStream(1, "fuzz-red"))
		fuzzDiscipline(t, "red", red, 16, data)
	})
}

// FuzzVirtualQueue exercises the shadow-queue marker: backlog per band
// never negative, total never beyond the shadow buffer, and an arrival
// that fits is never marked.
//
// Run with: go test ./internal/netsim -fuzz FuzzVirtualQueue
func FuzzVirtualQueue(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var c invariants.Checker
		const capBytes = 2000
		vq := netsim.NewVirtualQueue(1e6, capBytes)
		now := sim.Time(0)
		for k := 0; k+1 < len(data); k += 2 {
			op, arg := data[k], data[k+1]
			now += sim.Time(arg) * 100 * sim.Microsecond
			before := vq.TotalBacklog()
			p := &netsim.Packet{Size: 1 + int32(arg)*8, Band: op % netsim.NumBands}
			marked := vq.OnArrival(now, p)
			if marked && before+int64(p.Size) <= capBytes {
				// Drain can only shrink the backlog, so a packet that
				// already fit before the drain must never be marked.
				c.Violationf("marked a fitting packet: backlog=%d size=%d", before, p.Size)
			}
			c.CheckVirtualQueue("vq", vq, capBytes)
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	})
}
