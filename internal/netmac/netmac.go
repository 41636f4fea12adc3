// Package netmac is a MAC for the wall-clock runtime (internal/live) made
// of real UDP sockets on the loopback interface: gob-encoded wire messages
// and an application-level reliability layer (per-neighbor retransmission
// until acknowledged) that supplies exactly the model's contract — a
// broadcast reaches every neighbor, then the sender gets its
// acknowledgment. Everything an algorithm can observe (the amac.API, the
// node loops, termination) is the runtime's; this package only moves
// messages, and the runtime checks that it moves them in the right order.
//
// This is the paper's deployment claim taken literally (Section 1: "our
// upper bounds can be easily implemented in real wireless devices on
// existing MAC layers"): the unreliable datagram transport plays the radio,
// the retransmission layer plays the MAC, and the algorithms are byte-for-
// byte the ones analyzed on the simulator. Fack is emergent (finite but
// unknown), which is all the model requires.
package netmac

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/absmac/absmac/internal/amac"
	"github.com/absmac/absmac/internal/graph"
	"github.com/absmac/absmac/internal/live"
)

// envelope wraps the algorithm message for gob: concrete message types
// must be registered via RegisterMessages before running.
type envelope struct {
	M amac.Message
}

// RegisterMessages registers concrete message types with gob so they can
// travel inside envelopes. Call it once per process for every message type
// an algorithm broadcasts (passing zero values is fine).
func RegisterMessages(ms ...amac.Message) {
	for _, m := range ms {
		gob.Register(m)
	}
}

// packet is the wire format.
type packet struct {
	Ack     bool
	Node    int   // sender index for data; acking receiver index for acks
	Seq     int64 // the broadcast sequence being carried / acknowledged
	Payload []byte
}

// DefaultRTO is the retransmission interval when Run is given zero.
const DefaultRTO = 5 * time.Millisecond

// Result extends the runtime's result with wire-level counters.
type Result struct {
	live.Result
	// PacketsSent counts UDP datagrams sent (data and acks).
	PacketsSent int64
	// BytesSent counts UDP payload bytes sent.
	BytesSent int64
	// Retransmits counts data datagrams beyond each neighbor's first.
	Retransmits int64
	// Dropped counts received datagrams discarded as not ours: undecodable,
	// or not from the socket of the neighbor they name.
	Dropped int64
}

// node is one node's socket and reliability state.
type node struct {
	idx       int
	conn      *net.UDPConn
	peers     []*net.UDPAddr // by node index; nil for non-neighbors
	delivered []int64        // highest seq delivered, per sender; the reader's alone

	mu      sync.Mutex
	seq     int64         // the broadcast awaiting wire acks
	waiting map[int]bool  // neighbors yet to ack seq
	acked   chan struct{} // closed when waiting empties
}

// udp implements live.MAC.
type udp struct {
	rt    *live.Runtime
	rto   time.Duration
	nodes []*node
	wg    sync.WaitGroup // readers and retransmission loops

	packets, bytes, retransmits, dropped atomic.Int64
}

// open binds one loopback socket per node, wires neighbor addresses and
// starts the readers.
func open(rt *live.Runtime, g *graph.Graph, rto time.Duration) (*udp, error) {
	n := g.N()
	u := &udp{rt: rt, rto: rto, nodes: make([]*node, n)}
	addrs := make([]*net.UDPAddr, n)
	for i := range u.nodes {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			for _, nd := range u.nodes[:i] {
				nd.conn.Close()
			}
			return nil, fmt.Errorf("netmac: listen: %w", err)
		}
		u.nodes[i] = &node{
			idx:       i,
			conn:      conn,
			peers:     make([]*net.UDPAddr, n),
			delivered: make([]int64, n),
			waiting:   make(map[int]bool),
		}
		addrs[i] = conn.LocalAddr().(*net.UDPAddr)
	}
	for i, nd := range u.nodes {
		for _, v := range g.Neighbors(i) {
			nd.peers[v] = addrs[v]
		}
		u.wg.Add(1)
		go u.reader(nd)
	}
	return u, nil
}

func encode(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("netmac: encoding %T: %v (did you RegisterMessages it?)", v, err))
	}
	return buf.Bytes()
}

// Broadcast starts the reliability loop for one broadcast: transmit to
// every unacked neighbor each RTO until all have acked, then ack the
// sender. The reader wakes the loop on the last wire ack, so a broadcast
// that loses nothing costs a round trip, not an RTO.
func (u *udp) Broadcast(sender int, m amac.Message) {
	payload := encode(envelope{M: m})
	nd := u.nodes[sender]
	nd.mu.Lock()
	nd.seq++
	seq := nd.seq
	for v, addr := range nd.peers {
		if addr != nil {
			nd.waiting[v] = true
		}
	}
	acked := make(chan struct{})
	nd.acked = acked
	nd.mu.Unlock()
	wire := encode(packet{Node: sender, Seq: seq, Payload: payload})

	u.wg.Add(1)
	go func() {
		defer u.wg.Done()
		ticker := time.NewTicker(u.rto)
		defer ticker.Stop()
		for first := true; ; first = false {
			nd.mu.Lock()
			targets := make([]int, 0, len(nd.waiting))
			for v := range nd.waiting {
				targets = append(targets, v)
			}
			nd.mu.Unlock()
			if len(targets) == 0 {
				u.rt.Ack(sender)
				return
			}
			for _, v := range targets {
				if u.send(nd, nd.peers[v], wire) && !first {
					u.retransmits.Add(1)
				}
			}
			select {
			case <-ticker.C:
			case <-acked:
			case <-u.rt.Done():
				return
			}
		}
	}()
}

// send transmits one encoded packet and accounts for it. Transient send
// errors are just "loss": the RTO loop retries.
func (u *udp) send(nd *node, to *net.UDPAddr, wire []byte) bool {
	n, err := nd.conn.WriteToUDP(wire, to)
	if err != nil {
		return false
	}
	u.packets.Add(1)
	u.bytes.Add(int64(n))
	return true
}

// reader is the per-node socket loop; it ends when Close closes the socket.
func (u *udp) reader(nd *node) {
	defer u.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, from, err := nd.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if !u.receive(nd, from, buf[:n]) {
			u.dropped.Add(1)
		}
	}
}

// receive handles one datagram: clear reliability state on an ack; deliver
// fresh data and ack every data packet, fresh or not. The port is open to
// any local process, so it reports false — drop, as a radio would — for
// whatever does not decode or does not come from the socket of the neighbor
// it names.
func (u *udp) receive(nd *node, from *net.UDPAddr, datagram []byte) bool {
	var pkt packet
	if err := gob.NewDecoder(bytes.NewReader(datagram)).Decode(&pkt); err != nil {
		return false
	}
	if pkt.Node < 0 || pkt.Node >= len(nd.peers) {
		return false
	}
	peer := nd.peers[pkt.Node]
	if peer == nil || peer.Port != from.Port || !peer.IP.Equal(from.IP) {
		return false
	}
	if pkt.Ack {
		nd.mu.Lock()
		if pkt.Seq == nd.seq && nd.waiting[pkt.Node] {
			delete(nd.waiting, pkt.Node)
			if len(nd.waiting) == 0 {
				close(nd.acked)
			}
		}
		nd.mu.Unlock()
		return true
	}
	if pkt.Seq == nd.delivered[pkt.Node]+1 {
		var env envelope
		if err := gob.NewDecoder(bytes.NewReader(pkt.Payload)).Decode(&env); err != nil {
			return false
		}
		nd.delivered[pkt.Node] = pkt.Seq
		// Enqueue, then ack on the wire: the sender's MAC ack is released
		// by the last wire ack, so it cannot overtake this delivery.
		u.rt.Deliver(pkt.Node, nd.idx, env.M)
	}
	u.send(nd, peer, encode(packet{Ack: true, Node: nd.idx, Seq: pkt.Seq}))
	return true
}

// Close closes the sockets, which ends the readers, and waits for them and
// for the retransmission loops (which end on the runtime's Done).
func (u *udp) Close() {
	for _, nd := range u.nodes {
		nd.conn.Close()
	}
	u.wg.Wait()
}

// Run executes the configuration over loopback UDP, retransmitting every
// rto (0 means DefaultRTO), until every node decides, the context is
// canceled, or cfg.Timeout elapses. Validation, defaults and errors are
// live.Run's; cfg.Fack and cfg.Seed are unused. The wire counters are read
// once, after the run, into the Result.
func Run(ctx context.Context, cfg live.Config, rto time.Duration) (*Result, error) {
	if rto <= 0 {
		rto = DefaultRTO
	}
	var u *udp
	res, err := live.RunMAC(ctx, cfg, func(rt *live.Runtime) (mac live.MAC, err error) {
		if u, err = open(rt, cfg.Graph, rto); err != nil {
			return nil, err
		}
		return u, nil
	})
	if res == nil {
		return nil, err
	}
	return &Result{
		Result:      *res,
		PacketsSent: u.packets.Load(),
		BytesSent:   u.bytes.Load(),
		Retransmits: u.retransmits.Load(),
		Dropped:     u.dropped.Load(),
	}, err
}
