package sim

import "testing"

// FuzzRing checks Ring against a slice model. The first input byte picks the
// initial capacity (odd: RingInitCap 1, growing on nearly every push; even:
// the default); each further byte is one operation, b%8: 0–3 Push, 4 Pop,
// 5 PopTail, 6 Front, 7 Reset. Every result must equal the model's — the
// zero value on an empty ring — and after every operation At(i) must be
// model[i] for every i in [0, Len) and nil just outside it, and the backing
// array must hold the model's elements in order from head, wrapped, and nil
// in every other slot: a vacated slot keeps no pointer, after Reset included.
// The committed seeds under testdata/fuzz/FuzzRing/ cover growth with the
// head wrapped at both capacities and every operation on an empty ring.
//
// Run with: go test ./internal/sim -fuzz FuzzRing
func FuzzRing(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cap0 := RingInitCap
		defer func() { RingInitCap = cap0 }()
		if len(data) > 0 && data[0]&1 == 1 {
			RingInitCap = 1
		}

		var r Ring[*int]
		var model []*int
		for step, b := range data {
			var got, want *int
			switch b % 8 {
			case 0, 1, 2, 3:
				v := step
				r.Push(&v)
				model = append(model, &v)
			case 4:
				if got = r.Pop(); len(model) > 0 {
					want, model = model[0], model[1:]
				}
			case 5:
				if got = r.PopTail(); len(model) > 0 {
					want, model = model[len(model)-1], model[:len(model)-1]
				}
			case 6:
				if got = r.Front(); len(model) > 0 {
					want = model[0]
				}
			case 7:
				grown := len(r.buf)
				r.Reset()
				model = model[:0]
				if len(r.buf) != grown {
					t.Fatalf("step %d: Reset changed capacity %d -> %d", step, grown, len(r.buf))
				}
			}
			if got != want {
				t.Fatalf("step %d (op %d): got %p, want %p", step, b%8, got, want)
			}
			if r.Len() != len(model) {
				t.Fatalf("step %d: Len = %d, model has %d", step, r.Len(), len(model))
			}
			for i := -1; i <= len(model); i++ {
				want = nil
				if i >= 0 && i < len(model) {
					want = model[i]
				}
				if got := r.At(i); got != want {
					t.Fatalf("step %d: At(%d) = %p, want %p", step, i, got, want)
				}
			}
			mask := len(r.buf) - 1
			if len(r.buf)&mask != 0 || r.Len() > len(r.buf) {
				t.Fatalf("step %d: capacity %d for %d elements is not a power of two that holds them", step, len(r.buf), r.Len())
			}
			for i, p := range r.buf {
				j := (i - r.head) & mask
				if j < len(model) && p != model[j] {
					t.Fatalf("step %d: slot %d holds %p, model[%d] is %p", step, i, p, j, model[j])
				}
				if j >= len(model) && p != nil {
					t.Fatalf("step %d: vacated slot %d retains a pointer", step, i)
				}
			}
		}
	})
}
