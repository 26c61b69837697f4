package obs

import (
	"cmp"
	"slices"
	"testing"

	"eac/internal/sim"
)

// FuzzTraceRing checks the trace ring against a slice model. The first
// byte picks a capacity from 1 to 16, powers of two or not; every later
// byte writes one record through one of the collector's writers, at a time
// that may run backwards (as a lazily finished transmission's does). After
// each write the ring must hold exactly the model's last capacity records
// in write order — whole records, so a writer that leaves a field of the
// overwritten slot stale fails — and TraceDropped must count the rest; at
// the end sortByTime must give the retained records stably sorted by time.
func FuzzTraceRing(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0])%16
		c := New(Config{Enabled: true, TraceCapacity: capacity}, 1)
		tap := c.RegisterLink("L0")
		var model []traceRec
		for step, b := range data[1:] {
			at := sim.Time(b >> 3)
			flow, kind := step+1, b&1
			rec := traceRec{at: at, flow: int32(flow), kind: kind, a: int64(100 + step), b: int64(step), depth: int32(step % 5)}
			switch b & 7 {
			case 0, 1:
				tap.Enqueue(at, flow, kind, 100+step, int64(step), step%5)
				rec.ev = evEnqueue
			case 2:
				tap.Drop(at, flow, kind, 100+step, int64(step), step%5)
				rec.ev = evDrop
			case 3:
				tap.Dequeue(at, flow, kind, 100+step, int64(step), step%5)
				rec.ev = evDequeue
			case 4:
				class := 37 * step // past 255 from step 7 on
				c.Decision(at, flow, class, step%2 == 0, step%4, 0.125)
				rec = traceRec{at: at, ev: evReject, link: -1, flow: int32(flow),
					a: int64(step % 4), b: int64(class), frac: 0.125}
				if step%2 == 0 {
					rec.ev = evAdmit
				}
			case 5:
				c.Arrival(at, flow, 300+step)
				rec = traceRec{at: at, ev: evArrival, link: -1, flow: int32(flow), a: int64(300 + step)}
			case 6:
				c.Epoch(at, step, 0.5, 0.25, 0.125)
				rec = traceRec{at: at, ev: evEpoch, link: -1, flow: int32(step), a: 250000, b: 125000, frac: 0.5}
			case 7:
				tap.Mark(at, flow, kind, 100+step, int64(step), step%5)
				rec.ev = evMark
			}
			model = append(model, rec)
			keep := model[max(len(model)-capacity, 0):]
			if c.TraceLen() != len(keep) || c.TraceDropped() != int64(len(model)-len(keep)) {
				t.Fatalf("step %d: %d held, %d dropped; model %d, %d",
					step, c.TraceLen(), c.TraceDropped(), len(keep), len(model)-len(keep))
			}
			for i, want := range keep {
				if got := c.trace.at(i); got != want {
					t.Fatalf("step %d: record %d = %+v, want %+v", step, i, got, want)
				}
			}
		}
		want := slices.Clone(model[max(len(model)-capacity, 0):])
		slices.SortStableFunc(want, func(a, b traceRec) int { return cmp.Compare(a.at, b.at) })
		c.trace.sortByTime()
		if got := c.trace.buf[:c.trace.n]; !slices.Equal(got, want) {
			t.Fatalf("sortByTime:\n got %+v\nwant %+v", got, want)
		}
	})
}
