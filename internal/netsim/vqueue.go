package netsim

import "eac/internal/sim"

// VirtualQueue implements the ECN-marking rule of Section 3.1: the router
// simulates a shadow queue served at a fraction (90% in the paper) of the
// real bandwidth but with the same buffer, and marks the packets that would
// have been dropped in that shadow queue. It needs only one occupancy
// counter per priority band, updated on packet arrivals.
//
// Priority is honored inside the shadow queue the same way the real
// PriorityPushout honors it: the shadow drain empties band 0 first, and an
// arriving data packet that does not fit evicts shadow probe backlog
// instead of being marked. An arriving packet that does not fit (and cannot
// evict) is marked and not inserted, mirroring a real drop.
type VirtualQueue struct {
	rateBps  float64 // shadow service rate, bits per second
	capBytes int64   // shadow buffer size
	backlog  [NumBands]int64
	last     sim.Time
}

// NewVirtualQueue returns a shadow queue draining at rateBps with a buffer
// of capBytes.
func NewVirtualQueue(rateBps float64, capBytes int64) *VirtualQueue {
	if rateBps <= 0 || capBytes <= 0 {
		panic("netsim: NewVirtualQueue requires positive rate and capacity")
	}
	return &VirtualQueue{rateBps: rateBps, capBytes: capBytes}
}

// drain services the shadow backlog for the time elapsed since the last
// update, emptying higher-priority bands first.
func (v *VirtualQueue) drain(now sim.Time) {
	dt := now - v.last
	v.last = now
	if dt <= 0 {
		return
	}
	budget := int64(v.rateBps * float64(dt) / float64(sim.Second) / 8) // bytes
	for b := 0; b < NumBands && budget > 0; b++ {
		if v.backlog[b] <= budget {
			budget -= v.backlog[b]
			v.backlog[b] = 0
		} else {
			v.backlog[b] -= budget
			budget = 0
		}
	}
}

// OnArrival updates the shadow queue for an arriving packet and returns
// whether the packet should be marked.
func (v *VirtualQueue) OnArrival(now sim.Time, p *Packet) (mark bool) {
	v.drain(now)
	size := int64(p.Size)
	total := int64(0)
	for b := range v.backlog {
		total += v.backlog[b]
	}
	if total+size <= v.capBytes {
		v.backlog[p.Band] += size
		return false
	}
	// Does not fit: a higher-priority arrival evicts lower-band shadow
	// backlog, mirroring PriorityPushout. Decide before mutating: a real
	// pushout never partially commits, so a failed eviction must leave
	// the shadow queue unchanged (it used to zero the lower bands on the
	// way to discovering the packet still did not fit, silently draining
	// shadow probe backlog on every oversized data arrival).
	need := total + size - v.capBytes
	avail := int64(0)
	for b := NumBands - 1; b > int(p.Band); b-- {
		avail += v.backlog[b]
	}
	if avail < need {
		return true
	}
	for b := NumBands - 1; b > int(p.Band); b-- {
		if v.backlog[b] >= need {
			v.backlog[b] -= need
			break
		}
		need -= v.backlog[b]
		v.backlog[b] = 0
	}
	v.backlog[p.Band] += size
	return false
}

// Backlog returns the shadow backlog of one band in bytes (for tests).
func (v *VirtualQueue) Backlog(band int) int64 { return v.backlog[band] }

// TotalBacklog returns the shadow backlog across all bands in bytes, as
// of the last arrival (the observability layer samples it).
func (v *VirtualQueue) TotalBacklog() int64 {
	var t int64
	for b := range v.backlog {
		t += v.backlog[b]
	}
	return t
}
