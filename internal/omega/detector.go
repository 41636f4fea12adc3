package omega

import (
	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/metrics"
)

// Event is the outcome of a silence check.
type Event int

const (
	// Quiet: the silence bound has not elapsed; nothing changed.
	Quiet Event = iota
	// Demoted: omega changed (a suspicion was added, or the rotation
	// wrapped and re-promoted the maximum member). The caller should
	// treat this as a change event.
	Demoted
	// Rearm: this node already believes itself leader but nothing is
	// progressing; the caller should restart its proposer.
	Rearm
)

// Detector is the suspicion-based Ω failure detector (see the package
// comment). One instance per node; all methods are called from the node's
// serialized event handlers.
type Detector struct {
	self amac.NodeID
	n    int

	members IDSet // always contains self and omega
	// known is a membership bitset over the ids [0, 64*len(known)), sized
	// from n so the simulator's default ids 1..n fall inside. It only
	// answers Learn's "already a member?" without touching members, which
	// stays the source of truth and the rotation and gossip order; ids
	// outside the range take the binary search.
	known      []uint64
	suspected  IDSet
	omega      amac.NodeID
	gossipCur  int
	gossipTick int

	fhat      int64 // largest observed broadcast-to-ack delay, >= 1
	sendAt    int64 // time of the in-flight broadcast, -1 when none
	lastNovel int64
	mult      int64 // doubling multiplier for the silence bound

	// Metric handles (zero = disabled; see Instrument). All nodes of a
	// run share the slots, so the counts are network-wide totals.
	mSuspicions metrics.Counter
	mWraps      metrics.Counter
	mRearms     metrics.Counter
	mFhat       metrics.Gauge
	mMult       metrics.Gauge
}

// maxDetectorMult caps the doubling so the bound cannot overflow; at the
// cap the detector still fires, just at a fixed (very long) period.
const maxDetectorMult = 1 << 16

// NewDetector returns a detector for a node with the given id in a
// network of size n.
func NewDetector(self amac.NodeID, n int) *Detector {
	d := new(Detector)
	d.init(self, n)
	return d
}

// init sets up a detector in place; Service embeds one by value.
func (d *Detector) init(self amac.NodeID, n int) {
	*d = Detector{
		self:   self,
		n:      n,
		known:  make([]uint64, n/64+1),
		fhat:   1,
		sendAt: -1,
		mult:   1,
	}
	d.learn(self) // the first member, hence omega
}

// Instrument registers the detector's metric slots against r (nil-safe:
// a nil registry leaves the zero, disabled handles in place). Slot names
// are shared across all nodes and both algorithms — suspicions, wrap
// re-promotions and re-arms are network-wide totals, det_fhat's
// high-water is the largest Fack estimate any node formed, det_mult the
// largest silence-bound multiplier reached.
func (d *Detector) Instrument(r *metrics.Registry) {
	d.mSuspicions = r.Counter("det_suspicions")
	d.mWraps = r.Counter("det_wraps")
	d.mRearms = r.Counter("det_rearms")
	d.mFhat = r.Gauge("det_fhat")
	d.mMult = r.Gauge("det_mult")
}

// Omega returns the current leader estimate: the maximum unsuspected
// member.
func (d *Detector) Omega() amac.NodeID { return d.omega }

// Members returns the sorted known member set (shared slice; callers must
// not mutate it).
func (d *Detector) Members() []amac.NodeID { return d.members }

// Suspects reports whether id is currently suspected.
func (d *Detector) Suspects(id amac.NodeID) bool { return d.suspected.Has(id) }

// Fired reports whether this node's silence check has ever fired (the
// bound multiplier has left 1): the node has seen a suspicion of its own.
func (d *Detector) Fired() bool { return d.mult > 1 }

// LastNovel returns the time novel information was last observed.
func (d *Detector) LastNovel() int64 { return d.lastNovel }

// Learn adds id to the member set, reporting whether it was new. The
// caller should compare Omega before and after: a newly learned maximum
// takes over immediately (the paper's max-id election, now over a gossiped
// membership rather than a monotone high-water mark). Omega is a member, and
// over a third of all gossip names it: answered before known[w], a cache miss.
func (d *Detector) Learn(id amac.NodeID) bool { return id != d.omega && d.learn(id) }

func (d *Detector) learn(id amac.NodeID) bool {
	// A negative id wraps far past the last word and takes the search.
	w, bit := uint64(id)>>6, uint64(1)<<(uint64(id)&63)
	inRange := w < uint64(len(d.known))
	if inRange && d.known[w]&bit != 0 || !d.members.Add(id) {
		return false
	}
	if inRange {
		d.known[w] |= bit
	}
	d.elect()
	return true
}

// Gossip returns the next member id to announce. It alternates between
// the current omega — so the leader estimate floods at full speed and
// stabilizes in O(D*Fack), matching the paper's Algorithm 2 — and a
// round-robin walk of the member set, which spreads full membership so
// every node demotes in the same order. It is never empty (self is always
// a member), so an undecided node always has something to broadcast — the
// liveness tick the silence check depends on.
func (d *Detector) Gossip() amac.NodeID {
	d.gossipTick++
	if d.gossipTick%2 == 1 {
		return d.omega
	}
	if d.gossipCur >= len(d.members) {
		d.gossipCur = 0
	}
	id := d.members[d.gossipCur]
	d.gossipCur++
	return id
}

// Novel records that novel information was observed at time now, resetting
// the silence window. Retransmitted (deduplicated) traffic must not be
// reported here — only state changes count as progress.
func (d *Detector) Novel(now int64) {
	if now > d.lastNovel {
		d.lastNovel = now
	}
}

// NoteSend records the start of a broadcast (for the Fack estimate).
func (d *Detector) NoteSend(now int64) { d.sendAt = now }

// NoteAck records the matching ack and folds the observed delay into the
// Fack estimate fhat.
func (d *Detector) NoteAck(now int64) {
	if d.sendAt < 0 {
		return
	}
	delay := now - d.sendAt
	if delay < 1 {
		delay = 1
	}
	if delay > d.fhat {
		d.fhat = delay
		d.mFhat.Set(d.fhat)
	}
	d.sendAt = -1
}

// Bound returns the current silence bound.
func (d *Detector) Bound() int64 { return d.fhat * int64(4*d.n+8) * d.mult }

// Check runs the silence check at time now. When the bound has elapsed
// with nothing novel it fires: demote the current omega (electing the next
// highest unsuspected member), wrap the rotation when everyone else is
// already suspected, or — when this node is omega with no one suspected —
// tell the caller to re-arm its own proposer.
func (d *Detector) Check(now int64) Event {
	if now-d.lastNovel <= d.Bound() {
		return Quiet
	}
	d.lastNovel = now
	if d.mult < maxDetectorMult {
		d.mult *= 2
		d.mMult.Set(d.mult)
	}
	if d.omega != d.self {
		d.suspected.Add(d.omega)
		d.mSuspicions.Inc()
		d.elect()
		return Demoted
	}
	if len(d.suspected) == 0 {
		d.mRearms.Inc()
		return Rearm
	}
	// This node rotated all the way down to itself and still nothing
	// moved: clear the suspicions and re-probe from the top. A demoted
	// leader that was falsely suspected re-promotes here.
	d.suspected = d.suspected[:0]
	d.elect()
	d.mWraps.Inc()
	if d.omega == d.self {
		d.mRearms.Inc()
		return Rearm
	}
	return Demoted
}

// elect recomputes omega: the maximum unsuspected member, wrapping (all
// suspicions cleared) when every member is suspected. Members are sorted,
// so the scan is deterministic.
func (d *Detector) elect() {
	for i := len(d.members) - 1; i >= 0; i-- {
		if !d.suspected.Has(d.members[i]) {
			d.omega = d.members[i]
			return
		}
	}
	d.suspected = d.suspected[:0]
	d.omega = d.members[len(d.members)-1]
}
