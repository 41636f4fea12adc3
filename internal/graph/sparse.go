package graph

import (
	"fmt"
	"math/rand"
)

// This file holds the large-n sparse topology families: random regular
// expanders and Octopus-style multi-pod sparse meshes (arXiv:2501.09020).
// Both are degree-bounded — degree stays fixed while n grows into the
// 10^3..10^4 range — which is exactly the regime where the abstract MAC
// layer's degree- and diameter-proportional costs stay flat as the
// network scales. Both hand their edge list to FromEdges, so their
// adjacency rows are ascending.

// edgeKey packs a normalized edge for set membership during sampling.
func edgeKey(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// Expander returns a random d-regular graph on n nodes via deterministic
// seeded stub pairing (the configuration model with conflict repair):
// each node contributes d stubs, the stub multiset is repeatedly
// shuffled and paired greedily, and pairs that would form a self-loop or
// duplicate edge are pushed back for the next round. An attempt that
// stops making progress, or pairs into a disconnected graph, restarts
// from the advanced rng state. Random d-regular graphs are expanders
// (and connected) with high probability for d >= 3, so restarts are
// rare; the whole construction is deterministic for a given seed.
//
// Above half degree (2d > n-1) the pairing rarely closes — the last stubs
// left over mostly belong to nodes that are already neighbors — so a
// dense expander is the complement of a random (n-1-d)-regular graph,
// which pairs easily. It is connected because every degree is at least
// n/2.
//
// Requires 3 <= d < n and n*d even.
func Expander(n, d int, seed int64) *Graph {
	if d < 3 || d >= n {
		panic(fmt.Sprintf("graph: expander needs 3 <= d < n, got n=%d d=%d", n, d))
	}
	if n*d%2 != 0 {
		panic(fmt.Sprintf("graph: expander needs n*d even, got n=%d d=%d", n, d))
	}
	rng := rand.New(rand.NewSource(seed))
	dense := 2*d > n-1
	k := d
	if dense {
		k = n - 1 - d
	}
	const maxAttempts = 100
	for attempt := 0; attempt < maxAttempts; attempt++ {
		edges, ok := pairStubs(n, k, rng)
		if !ok {
			continue
		}
		g := FromEdges(n, edges)
		if dense {
			g = complement(g)
		}
		if g.IsConnected() {
			return g
		}
	}
	panic(fmt.Sprintf("graph: expander(%d,%d) failed to converge after %d pairing attempts", n, d, maxAttempts))
}

// complement returns the graph on g's nodes whose edges are g's non-edges.
func complement(g *Graph) *Graph {
	n := g.N()
	edges := make([][2]int, 0, n*(n-1)/2-g.M())
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return FromEdges(n, edges)
}

// pairStubs runs one pairing attempt: shuffle the remaining stubs, pair
// them two at a time, push conflicting pairs back, and repeat until every
// stub is matched or a round makes no progress (ok=false).
func pairStubs(n, d int, rng *rand.Rand) ([][2]int, bool) {
	stubs := make([]int, 0, n*d)
	for u := 0; u < n; u++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, u)
		}
	}
	seen := make(map[int64]struct{}, n*d/2)
	edges := make([][2]int, 0, n*d/2)
	for len(stubs) > 0 {
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		before := len(stubs)
		// Conflicting pairs are compacted in place: the write index never
		// passes the read index, so the aliasing is safe.
		rest := stubs[:0]
		for i := 0; i+1 < before; i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				rest = append(rest, u, v)
				continue
			}
			key := edgeKey(u, v)
			if _, dup := seen[key]; dup {
				rest = append(rest, u, v)
				continue
			}
			seen[key] = struct{}{}
			edges = append(edges, [2]int{u, v})
		}
		stubs = rest
		if len(stubs) == before {
			return nil, false
		}
	}
	return edges, true
}

// Pods returns an Octopus-style multi-pod sparse mesh: p pods of k nodes
// each (pod i owns ids [i*k, (i+1)*k)), every pod internally a ring (a
// line for k == 2, a lone node for k == 1), plus c cross-pod links per
// pod. The first cross link of each pod targets the next pod (i+1 mod p),
// closing a ring over the pods, so the mesh is connected by construction;
// the remaining c-1 links go to seeded random other pods between seeded
// random members, giving the long-range shortcuts that keep the diameter
// low while degree stays O(c/k + 2). Deterministic for a given seed.
//
// Requires p >= 1, k >= 1, and c >= 1 whenever p > 1.
func Pods(p, k, c int, seed int64) *Graph {
	if p < 1 || k < 1 || c < 0 {
		panic(fmt.Sprintf("graph: pods needs p, k >= 1 and c >= 0, got p=%d k=%d c=%d", p, k, c))
	}
	if p > 1 && c < 1 {
		panic(fmt.Sprintf("graph: pods with p=%d > 1 needs c >= 1 cross links for connectivity", p))
	}
	n := p * k
	rng := rand.New(rand.NewSource(seed))
	// Room for the rings and the cross links, which number at most the
	// node pairs: past that every link is a duplicate, and one pod has no
	// cross links at all.
	links := n * (n - 1) / 2
	if p == 1 {
		links = 0
	} else if c < links/p {
		links = p * c
	}
	seen := make(map[int64]struct{}, n+links)
	edges := make([][2]int, 0, n+links)
	add := func(u, v int) bool {
		if u == v {
			return false
		}
		key := edgeKey(u, v)
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		edges = append(edges, [2]int{u, v})
		return true
	}
	// Intra-pod rings.
	for i := 0; i < p; i++ {
		base := i * k
		for j := 0; j+1 < k; j++ {
			add(base+j, base+j+1)
		}
		if k >= 3 {
			add(base+k-1, base)
		}
	}
	// Cross-pod links. A duplicate first link can only mean the two pods
	// are already joined, so skipping it never costs connectivity.
	if p > 1 {
		for i := 0; i < p; i++ {
			for l := 0; l < c; l++ {
				target := (i + 1) % p
				if l > 0 {
					t := rng.Intn(p - 1)
					if t >= i {
						t++
					}
					target = t
				}
				for try := 0; try < 8; try++ {
					if add(i*k+rng.Intn(k), target*k+rng.Intn(k)) {
						break
					}
				}
			}
		}
	}
	return FromEdges(n, edges)
}
