package netsim

import (
	"testing"
	"testing/quick"

	"eac/internal/stats"
)

func mkPkt(band uint8, kind Kind, seq int64) *Packet {
	return &Packet{Band: band, Kind: kind, Seq: seq, Size: 125}
}

func TestDropTailFIFOOrder(t *testing.T) {
	q := NewDropTail(10)
	for i := int64(0); i < 5; i++ {
		if d := q.Enqueue(0, mkPkt(0, Data, i)); d != nil {
			t.Fatalf("unexpected drop at %d", i)
		}
	}
	for i := int64(0); i < 5; i++ {
		p := q.Dequeue()
		if p == nil || p.Seq != i {
			t.Fatalf("dequeue %d returned %+v", i, p)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("dequeue from empty queue")
	}
}

func TestDropTailDropsWhenFull(t *testing.T) {
	q := NewDropTail(3)
	for i := int64(0); i < 3; i++ {
		q.Enqueue(0, mkPkt(0, Data, i))
	}
	p := mkPkt(0, Data, 99)
	if d := q.Enqueue(0, p); d != p {
		t.Fatalf("full queue should drop the arrival, got %+v", d)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestDropTailWrapAround(t *testing.T) {
	q := NewDropTail(4)
	// Exercise ring wrap by cycling bursts of 3 through a capacity-4
	// queue many times; the head index wraps repeatedly and FIFO order
	// must survive.
	seq, expect := int64(0), int64(0)
	for round := 0; round < 40; round++ {
		for j := 0; j < 3; j++ {
			if d := q.Enqueue(0, mkPkt(0, Data, seq)); d != nil {
				t.Fatalf("unexpected drop at seq %d", seq)
			}
			seq++
		}
		for j := 0; j < 3; j++ {
			p := q.Dequeue()
			if p == nil || p.Seq != expect {
				t.Fatalf("wrap order broken: got %+v want %d", p, expect)
			}
			expect++
		}
	}
}

func TestPriorityPushoutServiceOrder(t *testing.T) {
	q := NewPriorityPushout(10)
	q.Enqueue(0, mkPkt(BandProbe, Probe, 0))
	q.Enqueue(0, mkPkt(BandData, Data, 1))
	q.Enqueue(0, mkPkt(BandProbe, Probe, 2))
	q.Enqueue(0, mkPkt(BandData, Data, 3))
	// Data band drains first, FIFO within band.
	wantSeq := []int64{1, 3, 0, 2}
	for i, w := range wantSeq {
		p := q.Dequeue()
		if p == nil || p.Seq != w {
			t.Fatalf("dequeue %d: got %+v want seq %d", i, p, w)
		}
	}
}

func TestPriorityPushoutDataPushesOutProbe(t *testing.T) {
	q := NewPriorityPushout(3)
	q.Enqueue(0, mkPkt(BandData, Data, 0))
	q.Enqueue(0, mkPkt(BandProbe, Probe, 1))
	q.Enqueue(0, mkPkt(BandProbe, Probe, 2))
	// Buffer full; arriving data displaces the most recent probe (seq 2).
	d := q.Enqueue(0, mkPkt(BandData, Data, 3))
	if d == nil || d.Seq != 2 || d.Kind != Probe {
		t.Fatalf("pushout victim = %+v, want probe seq 2", d)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d after pushout", q.Len())
	}
	// Service order: data 0, data 3, probe 1.
	for _, w := range []int64{0, 3, 1} {
		if p := q.Dequeue(); p.Seq != w {
			t.Fatalf("got seq %d want %d", p.Seq, w)
		}
	}
}

func TestPriorityPushoutProbeDroppedWhenFull(t *testing.T) {
	q := NewPriorityPushout(2)
	q.Enqueue(0, mkPkt(BandData, Data, 0))
	q.Enqueue(0, mkPkt(BandData, Data, 1))
	p := mkPkt(BandProbe, Probe, 2)
	if d := q.Enqueue(0, p); d != p {
		t.Fatalf("arriving probe should be dropped, got %+v", d)
	}
	// Arriving data with a full all-data buffer is also dropped.
	p2 := mkPkt(BandData, Data, 3)
	if d := q.Enqueue(0, p2); d != p2 {
		t.Fatalf("arriving data with no probes to push should drop, got %+v", d)
	}
}

func TestPriorityPushoutBandLen(t *testing.T) {
	q := NewPriorityPushout(5)
	q.Enqueue(0, mkPkt(BandData, Data, 0))
	q.Enqueue(0, mkPkt(BandProbe, Probe, 1))
	q.Enqueue(0, mkPkt(BandProbe, Probe, 2))
	if q.BandLen(BandData) != 1 || q.BandLen(BandProbe) != 2 {
		t.Fatalf("band lengths = %d,%d", q.BandLen(BandData), q.BandLen(BandProbe))
	}
}

// TestQueueConservationProperty: packets in == packets out + packets
// dropped, and occupancy never exceeds capacity, for random workloads on
// both disciplines.
func TestQueueConservationProperty(t *testing.T) {
	f := func(seed uint64, capRaw uint8, usePrio bool) bool {
		capacity := int(capRaw%20) + 1
		var q Discipline
		if usePrio {
			q = NewPriorityPushout(capacity)
		} else {
			q = NewDropTail(capacity)
		}
		x := seed
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		in, out, dropped := 0, 0, 0
		for i := 0; i < 2000; i++ {
			if next()%3 != 0 {
				band := uint8(BandData)
				kind := Data
				if usePrio && next()%2 == 0 {
					band, kind = BandProbe, Probe
				}
				in++
				if d := q.Enqueue(0, mkPkt(band, kind, int64(i))); d != nil {
					dropped++
				}
			} else if q.Dequeue() != nil {
				out++
			}
			if q.Len() > capacity {
				return false
			}
		}
		return in == out+dropped+q.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewQueuePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewDropTail(0) },
		func() { NewPriorityPushout(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for non-positive capacity")
				}
			}()
			fn()
		}()
	}
}

func TestPoolReuse(t *testing.T) {
	var pl Pool
	p := pl.Get()
	p.FlowID = 7
	p.Marked = true
	pl.Put(p)
	if pl.FreeLen() != 1 {
		t.Fatalf("FreeLen = %d", pl.FreeLen())
	}
	q := pl.Get()
	if q != p {
		t.Fatal("pool did not reuse the freed packet")
	}
	if q.FlowID != 0 || q.Marked {
		t.Fatal("pool returned a dirty packet")
	}
	if pl.Allocated != 1 {
		t.Fatalf("Allocated = %d, want 1", pl.Allocated)
	}
}

// TestPriorityPushoutTotalMatchesBandSum pins the shared-counter
// compensation in Enqueue's pushout branch: displacing a victim swaps a
// resident for the arrival, so `total` must stay untouched and always
// equal the sum of the per-band lengths. (The same check runs inside the
// conformance invariants guard on every operation.)
func TestPriorityPushoutTotalMatchesBandSum(t *testing.T) {
	q := NewPriorityPushout(4)
	check := func(step string) {
		sum := 0
		for b := 0; b < NumBands; b++ {
			sum += q.BandLen(b)
		}
		if sum != q.Len() {
			t.Fatalf("%s: total %d != band sum %d", step, q.Len(), sum)
		}
	}
	// Fill with probes, push out with data, overfill, interleave drains.
	for i := int64(0); i < 4; i++ {
		q.Enqueue(0, mkPkt(BandProbe, Probe, i))
		check("probe fill")
	}
	for i := int64(0); i < 4; i++ {
		if v := q.Enqueue(0, mkPkt(BandData, Data, 10+i)); v == nil {
			t.Fatal("full buffer with probe residents must push out")
		}
		check("pushout")
	}
	if v := q.Enqueue(0, mkPkt(BandData, Data, 20)); v == nil {
		t.Fatal("full all-data buffer must reject the arrival")
	}
	check("reject")
	q.Dequeue()
	check("dequeue")
	q.Enqueue(0, mkPkt(BandDataLow, Data, 30))
	check("low-band refill")
	for q.Dequeue() != nil {
		check("drain")
	}
}

// TestPriorityPushoutBandZeroIsDropTail: fed only band-0 packets — all
// traffic under in-band dropping, the legacy router of Section 4.7 — the
// priority queue makes DropTail's every decision, on random arrival and
// departure sequences: the same arrivals dropped, the same packets served in
// the same order.
func TestPriorityPushoutBandZeroIsDropTail(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := stats.NewStream(seed, "band0")
		pp, dt := NewPriorityPushout(8), NewDropTail(8)
		for i := int64(0); i < 10000; i++ {
			if rng.Bool(0.45) {
				a, b := pp.Dequeue(), dt.Dequeue()
				if (a == nil) != (b == nil) || a != nil && a.Seq != b.Seq {
					t.Fatalf("seed %d op %d: dequeued %v, DropTail %v", seed, i, a, b)
				}
				continue
			}
			da, db := pp.Enqueue(0, mkPkt(BandData, Kind(rng.Intn(2)), i)), dt.Enqueue(0, mkPkt(BandData, Data, i))
			if (da == nil) != (db == nil) || da != nil && da.Seq != db.Seq {
				t.Fatalf("seed %d op %d: dropped %v, DropTail %v", seed, i, da, db)
			}
		}
	}
}
