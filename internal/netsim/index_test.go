package netsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// adjacencyNames lists a node's outgoing links as their destinations.
func adjacencyNames(n *Network, id NodeID) string {
	var out []NodeID
	for _, l := range n.NeighborLinks(id) {
		out = append(out, l.To)
	}
	return fmt.Sprint(out)
}

// checkIndexPlumbing asserts the dense-index invariants over every node
// and link: NodeAt inverts Node(id).Index, LinksAt agrees with
// NeighborLinks, and every link's Reverse is the opposite direction of
// the same cable.
func checkIndexPlumbing(t *testing.T, n *Network, ids []NodeID) {
	t.Helper()
	if n.NodeCount() != len(ids) {
		t.Fatalf("NodeCount = %d, want %d", n.NodeCount(), len(ids))
	}
	for i, id := range ids {
		node := n.Node(id)
		if node.Index != int32(i) {
			t.Fatalf("%s: Index = %d, want creation order %d", id, node.Index, i)
		}
		if n.NodeAt(node.Index) != node {
			t.Fatalf("%s: NodeAt(Index) does not round-trip", id)
		}
		if fmt.Sprint(n.LinksAt(node.Index)) != fmt.Sprint(n.NeighborLinks(id)) {
			t.Fatalf("%s: LinksAt and NeighborLinks disagree", id)
		}
		for _, l := range n.LinksAt(node.Index) {
			if l.From != id || n.Link(l.From, l.To) != l {
				t.Fatalf("%s: adjacency holds %s->%s, not the wired link", id, l.From, l.To)
			}
			if l.ToIndex() != n.Node(l.To).Index {
				t.Fatalf("%s->%s: ToIndex = %d, want %d", l.From, l.To, l.ToIndex(), n.Node(l.To).Index)
			}
			if r := l.Reverse(); r != n.Link(l.To, l.From) || r.Reverse() != l {
				t.Fatalf("%s->%s: Reverse is not the opposite direction of the cable", l.From, l.To)
			}
		}
	}
}

func TestDenseIndexPlumbing(t *testing.T) {
	n := New(sim.NewEngine(1))
	ids := []NodeID{"s0", "s1", "h0", "h1", "h2"}
	for i, id := range ids {
		kind := KindHost
		if i < 2 {
			kind = KindSwitch
		}
		if err := n.AddNode(id, kind); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range [][2]NodeID{{"s0", "s1"}, {"s0", "h0"}, {"s0", "h1"}, {"s1", "h2"}} {
		if err := n.AddDuplexLink(c[0], c[1], mbps, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	checkIndexPlumbing(t, n, ids)
	if got := adjacencyNames(n, "s0"); got != "[s1 h0 h1]" {
		t.Fatalf("s0 adjacency = %s, want creation order", got)
	}

	// Re-cabling: the removed cable leaves both adjacency lists and the
	// link map, and the re-wired one joins the end of each list.
	old := n.Link("s0", "h0")
	if err := n.RemoveDuplexLink("h0", "s0"); err != nil {
		t.Fatal(err)
	}
	if n.Link("s0", "h0") != nil || n.Link("h0", "s0") != nil {
		t.Fatal("removed cable still resolves")
	}
	if got := adjacencyNames(n, "s0"); got != "[s1 h1]" {
		t.Fatalf("s0 adjacency after removal = %s", got)
	}
	if got := adjacencyNames(n, "h0"); got != "[]" {
		t.Fatalf("h0 adjacency after removal = %s", got)
	}
	checkIndexPlumbing(t, n, ids)
	if err := n.AddDuplexLink("s0", "h0", mbps, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := adjacencyNames(n, "s0"); got != "[s1 h1 h0]" {
		t.Fatalf("s0 adjacency after re-cabling = %s", got)
	}
	if l := n.Link("s0", "h0"); l == old || l.Reverse() == old.Reverse() {
		t.Fatal("re-wired cable reuses the removed links")
	}
	checkIndexPlumbing(t, n, ids)
}
