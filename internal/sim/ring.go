package sim

// RingInitCap is a Ring's initial capacity, rounded up to a power of two.
// Like HeapInitCap it exists for the byte-identity tests, which shrink it to
// 1 to force growth on nearly every push and prove that ring geometry cannot
// reach simulation output. Do not change it while simulations are running.
var RingInitCap = 16

// Ring is a growable FIFO ring buffer: the lanes of a Sim, the packet queues
// of every discipline and the propagation pipes are all one. Its capacity is
// a power of two, so positions wrap with a mask instead of a modulo; it
// doubles when full and never shrinks. A vacated slot is zeroed at once, so
// a ring holds no pointer to anything it no longer contains. The zero Ring
// is empty and ready to use.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of elements in the ring.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Front returns the oldest element without removing it, or the zero value
// when the ring is empty.
func (r *Ring[T]) Front() (v T) {
	if r.n == 0 {
		return v
	}
	return r.buf[r.head]
}

// At returns the element i places behind the oldest (At(0) is Front), or
// the zero value when i is not in [0, Len).
func (r *Ring[T]) At(i int) (v T) {
	if uint(i) >= uint(r.n) {
		return v
	}
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Pop removes and returns the oldest element, or the zero value when the
// ring is empty.
func (r *Ring[T]) Pop() (v T) {
	if r.n == 0 {
		return v
	}
	v = r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// PopTail removes and returns the newest element, or the zero value when
// the ring is empty.
func (r *Ring[T]) PopTail() (v T) {
	if r.n == 0 {
		return v
	}
	i := (r.head + r.n - 1) & (len(r.buf) - 1)
	v = r.buf[i]
	var zero T
	r.buf[i] = zero
	r.n--
	return v
}

// Reset empties the ring, keeping its capacity.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// grow doubles a full ring (or allocates an empty one at RingInitCap). The
// residents are buf[head:] followed by buf[:head]; they move to the front.
func (r *Ring[T]) grow() {
	nc := 2 * len(r.buf)
	if nc == 0 {
		for nc = 1; nc < RingInitCap; nc <<= 1 {
		}
	}
	nb := make([]T, nc)
	k := copy(nb, r.buf[r.head:])
	copy(nb[k:], r.buf[:r.head])
	r.buf, r.head = nb, 0
}
