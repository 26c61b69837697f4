package sim

// Lane names a monotone lane of a Sim: a FIFO ring of ordinary
// (when, seq, *Event) entries whose times are non-decreasing in scheduling
// order, which "now + d" for a fixed d always is. Only a lane's head
// occupies a queue slot, in the stream tier; a tick rescheduled through its
// lane is a ring append instead of a sift to the bottom of a heap, and the
// follower is promoted when the head is dispatched or cancelled.
//
// Lanes cannot change the dispatch order, for three reasons. Every entry,
// ring or tier, draws its seq from the one global counter, so (when, seq)
// is the same total order as without lanes. A ring is sorted by that key
// (when non-decreasing by ScheduleLane's check, seq increasing by
// construction) and its head sits in the stream tier under its own key, so
// the smaller of the two tier roots is the global minimum. And a
// ScheduleLane whose time would break the ring's order is not an error: it
// is queued as a plain Schedule. The interval a lane was asked for is thus
// only a hint that makes appends likely to succeed; no result depends on it.
//
// The zero Lane is "no lane": ScheduleLane with it is Schedule.
type Lane uint8

// maxLanes bounds the lane table. A run uses one lane per distinct source
// or probe-stage interval — a handful; requests beyond the table get the
// zero Lane and fall through to Schedule.
const maxLanes = 64

// lane is one ring plus the state of its tier-resident head. Invariant:
// the ring holds entries only while head is set — whenever the head leaves
// the stream tier the next live ring entry replaces it at once.
type lane struct {
	ring    Ring[entry]
	dead    int    // tombstones in the ring (Cancel of a ring-resident event)
	head    bool   // an entry of this lane occupies a stream-tier slot
	headSeq uint64 // that entry's seq
	tail    Time   // time of the newest entry; appends must not precede it
}

// reset empties the lane, keeping the ring's capacity.
func (l *lane) reset() {
	l.ring.Reset() // drop Event pointers so dead runs are collectable
	*l = lane{ring: l.ring}
}

// Lane returns the lane for events rescheduled at now + d, creating it on
// first use. Callers resolve it once per interval (at construction or rate
// change), not per tick. Handles do not survive Reset.
func (s *Sim) Lane(d Time) Lane {
	for i, k := range s.laneKeys[:s.nLanes] {
		if k == d {
			return Lane(i + 1)
		}
	}
	if s.nLanes == maxLanes {
		return 0
	}
	if s.nLanes == len(s.lanes) {
		s.lanes = append(s.lanes, lane{})
	}
	s.laneKeys[s.nLanes] = d
	s.nLanes++
	return Lane(s.nLanes)
}

// ScheduleLane is Schedule for a periodic tick: when at keeps ln's ring in
// order (always, for now + the lane's interval) the entry is appended there
// and no heap work happens; otherwise it is scheduled like any event (as
// the lane's head, in the stream tier, when the lane was idle). Either way e
// fires exactly when and in the order Schedule would have fired it.
func (s *Sim) ScheduleLane(ln Lane, e *Event, at Time) {
	if ln == 0 || int(ln) > s.nLanes {
		s.Schedule(e, at)
		return
	}
	l := &s.lanes[ln-1]
	if !l.head || at < l.tail {
		s.schedule(e, at, !l.head || e.stream)
		if !l.head { // idle lane: e becomes its tier-resident head
			e.lane = ln
			l.head, l.headSeq, l.tail = true, e.seq, at
		}
		return
	}
	if e.pending {
		panic("sim: Schedule of pending event")
	}
	// Not in the past: at >= tail >= the live head's time >= now.
	e.when = at
	e.seq = s.seq
	e.pending = true
	e.lane = ln
	s.seq++
	s.nLive++
	s.ctr.LaneAppends++
	l.tail = at
	l.ring.Push(entry{when: at, seq: e.seq, e: e})
}

// promote replaces a lane's departed head with the next live ring entry, if
// there is one, scrubbing ring tombstones on the way. The entry takes the
// stream tier's root when the dispatch loop left a hole there.
func (s *Sim) promote(l *lane) {
	for l.ring.Len() > 0 {
		ent := l.ring.Pop()
		if l.dead > 0 && !ent.live() {
			l.dead--
			s.ctr.Scrubbed++
			continue
		}
		l.headSeq = ent.seq
		s.ctr.Promotions++
		s.stream.push(ent)
		return
	}
	l.head = false
}

// cancelLane detaches a just-cancelled event from its lane. A ring-resident
// entry becomes a ring tombstone; the tier-resident head becomes an
// ordinary tombstone and its follower is promoted.
func (s *Sim) cancelLane(e *Event) {
	l := &s.lanes[e.lane-1]
	e.lane = 0
	if l.headSeq != e.seq {
		l.dead++
		return
	}
	s.nDead++
	s.promote(l)
}
