package omega

import (
	"math/bits"
	"slices"

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
// serialized event handlers. Its member set is an n-bit set plus an IDSet
// for the ids beyond it, so learning a member in 1..n costs a bit test and
// no allocation.
type Detector struct {
	self amac.NodeID
	n    int

	// The member set, which always contains self and omega, is known for
	// the ids in [0, 64*len(known)) — a bitset sized from n, so the
	// simulator's default ids 1..n fall inside — and outside for any other
	// id. Its ascending order is outside's negative ids, the set bits,
	// then outside's ids past the bitset: the rotation and gossip order.
	known      []uint64
	outside    IDSet
	suspected  IDSet
	omega      amac.NodeID
	since      int64 // when omega last moved (OmegaSince)
	gossipCur  int   // rank of the member the walk announces next
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

// init sets up a detector in place; Service embeds one by value. A
// detector that served an earlier run keeps its tables' storage
// (amac.ReuseSized, amac.Reuse).
func (d *Detector) init(self amac.NodeID, n int) {
	*d = Detector{
		self:      self,
		n:         n,
		known:     amac.ReuseSized(d.known, n/64+1),
		outside:   amac.Reuse(d.outside),
		suspected: amac.Reuse(d.suspected),
		omega:     self,
		fhat:      1,
		sendAt:    -1,
		mult:      1,
	}
	d.learn(self) // the first member
}

// Instrument registers the detector's metric slots against r (nil-safe:
// a nil registry leaves the zero, disabled handles in place). Slot names
// are shared across all nodes and both transports — suspicions, wrap
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

// OmegaSince returns when Omega last moved, through Service.Hear or a
// demotion (Check), or 0 if it never has: the stabilization time that
// amac.View.OmegaSince reports.
func (d *Detector) OmegaSince() int64 { return d.since }

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
	// A negative id wraps far past the last word and goes to outside.
	if w := uint64(id) >> 6; w < uint64(len(d.known)) {
		bit := uint64(1) << (uint64(id) & 63)
		if d.known[w]&bit != 0 {
			return false
		}
		d.known[w] |= bit
	} else if !d.outside.Add(id) {
		return false
	}
	// Omega is the maximum unsuspected member and only members are ever
	// suspected, so a new member leads exactly when it is above omega.
	if id > d.omega {
		d.omega = id
	}
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
	id, ok := d.member(d.gossipCur)
	if !ok {
		d.gossipCur = 0
		id, _ = d.member(0)
	}
	d.gossipCur++
	return id
}

// member returns the member of rank k, counting up from 0 at the smallest,
// and false when there are only k members or fewer. The walk goes by rank,
// not by id: a member learned below the cursor shifts every rank above it
// by one, and the walk repeats the id it announced last.
func (d *Detector) member(k int) (amac.NodeID, bool) {
	neg, _ := d.outside.find(0)
	if k < neg {
		return d.outside[k], true
	}
	k -= neg
	for i, w := range d.known {
		if c := bits.OnesCount64(w); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			w &= w - 1 // drop the lowest member of the word
		}
		return amac.NodeID(i<<6 | bits.TrailingZeros64(w)), true
	}
	if k += neg; k < len(d.outside) {
		return d.outside[k], true
	}
	return 0, false
}

// descending yields the members from the largest down.
func (d *Detector) descending(yield func(amac.NodeID) bool) {
	neg, _ := d.outside.find(0)
	for _, id := range slices.Backward(d.outside[neg:]) {
		if !yield(id) {
			return
		}
	}
	for i := len(d.known) - 1; i >= 0; i-- {
		for w := d.known[i]; w != 0; {
			b := 63 - bits.LeadingZeros64(w)
			if !yield(amac.NodeID(i<<6 | b)) {
				return
			}
			w &^= 1 << b
		}
	}
	for _, id := range slices.Backward(d.outside[:neg]) {
		if !yield(id) {
			return
		}
	}
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
		d.since = now
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
	d.since = now
	return Demoted
}

// elect recomputes omega after a suspicion: the maximum unsuspected
// member, found by a scan from the top. Self is never suspected (Check
// suspects only an omega other than self), so the scan always finds one.
func (d *Detector) elect() {
	for id := range d.descending {
		if !d.suspected.Has(id) {
			d.omega = id
			return
		}
	}
}
