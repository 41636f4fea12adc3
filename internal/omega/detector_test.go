package omega

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/absmac/absmac/internal/amac"
)

func TestDetectorLearnAndElect(t *testing.T) {
	d := NewDetector(3, 5)
	if d.Omega() != 3 {
		t.Fatalf("fresh omega = %d", d.Omega())
	}
	if !d.Learn(7) || d.Omega() != 7 {
		t.Fatalf("after learning 7: omega = %d", d.Omega())
	}
	if d.Learn(7) {
		t.Fatal("re-learning 7 reported new")
	}
	if !d.Learn(1) || d.Omega() != 7 {
		t.Fatalf("learning a smaller id moved omega to %d", d.Omega())
	}
	want := []amac.NodeID{1, 3, 7}
	got := d.members()
	if len(got) != len(want) {
		t.Fatalf("members %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members %v, want %v", got, want)
		}
	}
}

func TestDetectorGossipCycles(t *testing.T) {
	d := NewDetector(2, 4)
	d.Learn(5)
	d.Learn(1)
	// Odd calls announce omega (fast leader flood), even calls walk the
	// sorted member set {1, 2, 5} round-robin.
	want := []amac.NodeID{5, 1, 5, 2, 5, 5, 5, 1}
	for i, w := range want {
		if got := d.Gossip(); got != w {
			t.Fatalf("gossip call %d = %d, want %d", i+1, got, w)
		}
	}
}

func TestDetectorDemotionRotation(t *testing.T) {
	d := NewDetector(1, 4)
	for _, id := range []amac.NodeID{2, 3, 4} {
		d.Learn(id)
	}
	d.Novel(0)
	step := d.Bound() + 1
	now := step
	// Silence demotes the current omega and rotates to the next highest
	// unsuspected member: 4, then 3, then 2, then self.
	for _, want := range []amac.NodeID{3, 2, 1} {
		if ev := d.Check(now); ev != Demoted {
			t.Fatalf("Check = %v, want Demoted", ev)
		}
		if d.Omega() != want {
			t.Fatalf("omega = %d, want %d", d.Omega(), want)
		}
		now += d.Bound() + 1
	}
	if !d.Suspects(4) || !d.Suspects(3) || !d.Suspects(2) {
		t.Fatal("demoted members not suspected")
	}
}

func TestDetectorWrapRepromotesAfterSilence(t *testing.T) {
	// A demoted leader re-promotes on recovery-free silence: once the
	// rotation reaches self and nothing moves, suspicions clear and the
	// maximum member leads again.
	d := NewDetector(1, 3)
	d.Learn(2)
	d.Learn(3)
	d.Novel(0)
	now := int64(0)
	for d.Omega() != 1 {
		now += d.Bound() + 1
		d.Check(now)
	}
	now += d.Bound() + 1
	if ev := d.Check(now); ev != Demoted {
		t.Fatalf("wrap Check = %v, want Demoted", ev)
	}
	if d.Omega() != 3 {
		t.Fatalf("omega after wrap = %d, want re-promoted max 3", d.Omega())
	}
	if d.Suspects(2) || d.Suspects(3) {
		t.Fatal("suspicions survived the wrap")
	}
}

func TestDetectorRearmWhenSelfIsLeader(t *testing.T) {
	d := NewDetector(9, 3)
	d.Learn(1)
	d.Novel(0)
	if ev := d.Check(d.Bound() + 1); ev != Rearm {
		t.Fatalf("Check = %v, want Rearm for a silent self-leader", ev)
	}
}

func TestDetectorQuietWithinBound(t *testing.T) {
	d := NewDetector(1, 3)
	d.Novel(100)
	if ev := d.Check(100 + d.Bound()); ev != Quiet {
		t.Fatalf("Check at the bound = %v, want Quiet", ev)
	}
}

func TestDetectorBoundDoublesAndCaps(t *testing.T) {
	d := NewDetector(1, 3)
	d.Learn(2)
	base := d.Bound()
	now := int64(0)
	prev := int64(0)
	for i := 0; i < 40; i++ {
		now += d.Bound() + 1
		d.Check(now)
		if d.Bound() < prev {
			t.Fatal("bound shrank")
		}
		prev = d.Bound()
	}
	if d.Bound() != base*maxDetectorMult {
		t.Fatalf("capped bound = %d, want %d", d.Bound(), base*maxDetectorMult)
	}
}

func TestDetectorFackEstimate(t *testing.T) {
	d := NewDetector(1, 3)
	d.NoteSend(10)
	d.NoteAck(17)
	if d.fhat != 7 {
		t.Fatalf("fhat = %d after a delay-7 ack", d.fhat)
	}
	// A faster ack never lowers the estimate; an unmatched ack is ignored.
	d.NoteSend(20)
	d.NoteAck(22)
	d.NoteAck(30)
	if d.fhat != 7 {
		t.Fatalf("fhat = %d, want sticky max 7", d.fhat)
	}
	if d.Bound() != 7*int64(4*3+8) {
		t.Fatalf("bound = %d", d.Bound())
	}
}

func TestDetectorRotationDeterministicAcrossSeeds(t *testing.T) {
	// The demotion order must be a pure function of the member set, not of
	// the order in which members were learned: shuffle the learn order
	// under several seeds and require the identical omega trajectory.
	members := []amac.NodeID{4, 9, 2, 7, 5}
	var want []amac.NodeID
	for seed := int64(0); seed < 8; seed++ {
		order := append([]amac.NodeID(nil), members...)
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
		d := NewDetector(2, len(members))
		for _, id := range order {
			if id != 2 {
				d.Learn(id)
			}
		}
		var got []amac.NodeID
		now := int64(0)
		for i := 0; i < 2*len(members); i++ {
			now += d.Bound() + 1
			d.Check(now)
			got = append(got, d.Omega())
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: omega trajectory %v, want %v", seed, got, want)
			}
		}
	}
}

// TestDetectorLearnStraddlesBitsetRange: the membership bitset holds ids
// inside [0, 64*words) and everything else — larger, negative, or a self
// id out of range — goes to the sorted outside set. Both paths must agree
// with a plain set, in any order, and read back in ascending order.
func TestDetectorLearnStraddlesBitsetRange(t *testing.T) {
	const n = 100 // 2 words: ids 0..127 are in range
	for _, self := range []amac.NodeID{5, 127, 128, 1_000_000_007, -3} {
		d := NewDetector(self, n)
		limit := amac.NodeID(64 * len(d.known))
		ids := []amac.NodeID{0, 1, 63, 64, limit - 1, limit, limit + 1, 4 * limit, 1 << 40,
			1_000_000_000, 1_000_000_017, -1, -64, -1 << 62, self}
		rng := rand.New(rand.NewSource(int64(self)))
		seen := map[amac.NodeID]bool{self: true}
		for round := 0; round < 4; round++ {
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			for _, id := range ids {
				if got, want := d.Learn(id), !seen[id]; got != want {
					t.Fatalf("self %d round %d: Learn(%d) = %v, want %v (limit %d)", self, round, id, got, want, limit)
				}
				seen[id] = true
			}
		}
		m := d.members()
		if len(m) != len(seen) {
			t.Fatalf("self %d: %d members, want %d: %v", self, len(m), len(seen), m)
		}
		for i := range m {
			if !seen[m[i]] || (i > 0 && m[i-1] >= m[i]) {
				t.Fatalf("self %d: members not the sorted learned set: %v", self, m)
			}
		}
		if d.Omega() != m[len(m)-1] {
			t.Fatalf("self %d: omega %d is not the maximum member %d", self, d.Omega(), m[len(m)-1])
		}
	}
}

// members returns the member set in ascending order.
func (d *Detector) members() []amac.NodeID {
	var m []amac.NodeID
	for id := range d.descending {
		m = append(m, id)
	}
	slices.Reverse(m)
	return m
}

// sortedDetector is the detector as it was before its member set became a
// bitset: one sorted slice holds every member and the gossip walk indexes
// it. It covers what that change touched — membership, election, the walk
// and a Check past the silence bound — and is the oracle of
// TestDetectorMatchesSortedOracle.
type sortedDetector struct {
	self                  amac.NodeID
	members, suspected    IDSet
	omega                 amac.NodeID
	gossipCur, gossipTick int
}

func newSortedDetector(self amac.NodeID) *sortedDetector {
	o := &sortedDetector{self: self}
	o.learn(self)
	return o
}

func (o *sortedDetector) learn(id amac.NodeID) bool {
	if !o.members.Add(id) {
		return false
	}
	o.elect()
	return true
}

func (o *sortedDetector) gossip() amac.NodeID {
	o.gossipTick++
	if o.gossipTick%2 == 1 {
		return o.omega
	}
	if o.gossipCur >= len(o.members) {
		o.gossipCur = 0
	}
	id := o.members[o.gossipCur]
	o.gossipCur++
	return id
}

// fire is Check once the silence bound has elapsed.
func (o *sortedDetector) fire() Event {
	if o.omega != o.self {
		o.suspected.Add(o.omega)
		o.elect()
		return Demoted
	}
	if len(o.suspected) == 0 {
		return Rearm
	}
	o.suspected = o.suspected[:0]
	o.elect()
	if o.omega == o.self {
		return Rearm
	}
	return Demoted
}

func (o *sortedDetector) elect() {
	for i := len(o.members) - 1; i >= 0; i-- {
		if !o.suspected.Has(o.members[i]) {
			o.omega = o.members[i]
			return
		}
	}
	o.suspected = o.suspected[:0]
	o.omega = o.members[len(o.members)-1]
}

// TestDetectorMatchesSortedOracle drives the detector and sortedDetector
// through the same seeded interleavings of Learn, Gossip and firing Checks —
// ids on both sides of the bitset range and negative ones, selves in and out
// of it, demotions, wraps, and learns that land below the gossip cursor — and
// requires equal answers, Omega, Suspects and member sets after every call.
// The walk must go by rank: an id-ordered one skips the repeat that a
// member learned below the cursor causes.
func TestDetectorMatchesSortedOracle(t *testing.T) {
	const n = 100 // 2 words: ids 0..127 are in the bitset
	pool := []amac.NodeID{0, 1, 2, 7, 63, 64, 99, 100, 126, 127, 128, 129, 4096, 1 << 40, -1, -2, -64, -1 << 62}
	var below, demotions, wraps int
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, self := range []amac.NodeID{0, 5, 127, 128, 1 << 40, -3} {
			d, o := NewDetector(self, n), newSortedDetector(self)
			now := int64(0)
			for step := 0; step < 600; step++ {
				where := func() string { return fmt.Sprintf("seed %d self %d step %d", seed, self, step) }
				switch op := rng.Intn(10); {
				case op < 3:
					id := pool[rng.Intn(len(pool))]
					if i, found := o.members.find(id); !found && i < o.gossipCur {
						below++
					}
					if g, w := d.Learn(id), o.learn(id); g != w {
						t.Fatalf("%s: Learn(%d) = %v, oracle %v", where(), id, g, w)
					}
				case op < 8:
					if g, w := d.Gossip(), o.gossip(); g != w {
						t.Fatalf("%s: Gossip() = %d, oracle %d (members %v)", where(), g, w, o.members)
					}
				default:
					if o.omega == o.self && len(o.suspected) > 0 {
						wraps++
					}
					now += d.Bound() + 1
					g, w := d.Check(now), o.fire()
					if g != w {
						t.Fatalf("%s: Check = %v, oracle %v", where(), g, w)
					}
					if w == Demoted {
						demotions++
					}
				}
				if d.Omega() != o.omega {
					t.Fatalf("%s: Omega() = %d, oracle %d", where(), d.Omega(), o.omega)
				}
				for _, id := range pool {
					if d.Suspects(id) != o.suspected.Has(id) {
						t.Fatalf("%s: Suspects(%d) = %v, oracle %v", where(), id, d.Suspects(id), o.suspected.Has(id))
					}
				}
				if m := d.members(); !slices.Equal(m, o.members) {
					t.Fatalf("%s: members %v, oracle %v", where(), m, o.members)
				}
			}
		}
	}
	if below == 0 || demotions == 0 || wraps == 0 {
		t.Fatalf("the interleavings missed a case: %d learns below the cursor, %d demotions, %d wraps", below, demotions, wraps)
	}
}
