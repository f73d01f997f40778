package dom

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// twinDocs returns a tree-backed document carrying every node kind and
// the full prolog metadata, and its arena-only twin, written node by
// node through a Builder as the parser writes one.
func twinDocs(seed int64) (tree, arenaOnly *Document) {
	tree = spanDoc(seed)
	tree.Version, tree.Encoding, tree.Standalone = "1.0", "UTF-8", "no"
	tree.DocType = &DocType{Name: "r", SystemID: "r.dtd", InternalSubset: "<!ENTITY e 'x'>"}
	tree.Renumber()
	b := NewBuilder(0)
	for _, c := range tree.Node.Children {
		b.addTree(c)
	}
	return tree, b.Finish(tree)
}

// walkTrace records a Walk as one line per visited node; skipping the
// subtrees of every e1 element exercises the walk's pruning.
func walkTrace(d *Document) string {
	var b strings.Builder
	d.Walk(func(n *Node) bool {
		fmt.Fprintf(&b, "%d %s %q %q %v\n", n.Order, n.Type, n.Name, n.Data, n.Defaulted)
		return n.Name != "e1"
	})
	return b.String()
}

// TestArenaOnlyDocumentAPI holds every exported Document method to the
// same answer on an arena-only document as on its tree-backed twin.
func TestArenaOnlyDocumentAPI(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		tree, ao := twinDocs(seed)
		if ao.Node != nil {
			t.Fatal("Builder.Finish returned a tree")
		}
		if ar := ao.ReadArena(); ar == nil || ao.BuildArena() != ar {
			t.Fatal("arena-only document does not answer with the arena it carries")
		}
		same := func(what, got, want string) {
			t.Helper()
			if got != want {
				t.Fatalf("seed %d: %s differs on the arena-only document:\narena-only: %s\ntree:       %s", seed, what, got, want)
			}
		}
		same("NodeCount", fmt.Sprint(ao.NodeCount()), fmt.Sprint(tree.NodeCount()))
		same("CountNodes", fmt.Sprint(ao.CountNodes()), fmt.Sprint(tree.CountNodes()))
		same("DocumentElement", MarkupString(ao.DocumentElement()), MarkupString(tree.DocumentElement()))
		same("String", ao.String(), tree.String())
		same("StringIndent", ao.StringIndent("  "), tree.StringIndent("  "))
		same("Walk", walkTrace(ao), walkTrace(tree))
		same("Clone", ao.Clone().String(), tree.Clone().String())
		same("ReadTree", ao.ReadTree().String(), tree.String())
		if tree.ReadTree() != tree {
			t.Fatal("ReadTree of a tree-backed document is not the document")
		}
		if a, b := ao.ReadTree(), ao.ReadTree(); a == b || a.Node == nil || a.ReadArena() == ao.ReadArena() {
			t.Fatal("ReadTree of an arena-only document must be a fresh, uncached, arena-less copy")
		}
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 5; k++ {
			mask := viewMask(tree, rng)
			same("CloneMasked", walkTrace(ao.CloneMasked(mask)), walkTrace(tree.CloneMasked(mask)))
			for _, opts := range []WriteOptions{
				{Mask: mask},
				{Mask: mask, Indent: ServeIndent, DocTypeSystemID: "loose.dtd"},
				{Indent: "\t", OmitDecl: true, OmitDocType: true},
			} {
				var x, y strings.Builder
				if err := ao.Write(&x, opts); err != nil {
					t.Fatal(err)
				}
				if err := tree.Write(&y, opts); err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("Write(%+v)", opts), x.String(), y.String())
			}
		}

		// Mutations: the arena-only document takes a tree of its own
		// and from then on behaves as its twin does.
		same("Renumber", fmt.Sprint(ao.Renumber()), fmt.Sprint(tree.Clone().Renumber()))
		repl := NewElement("fresh")
		repl.SetAttr("k", "v")
		tree.SetDocumentElement(repl.Clone())
		ao.SetDocumentElement(repl)
		same("Renumber after SetDocumentElement", fmt.Sprint(ao.Renumber()), fmt.Sprint(tree.Renumber()))
		same("String after SetDocumentElement", ao.String(), tree.String())
		same("BuildArena after SetDocumentElement", ao.BuildArena().Materialize().String(), tree.BuildArena().Materialize().String())
	}
}

// TestArenaPathMatchesNodePath pins Arena.Path to Node.Path on every
// node kind — the document node, elements, attributes, text, CDATA,
// comments and processing instructions, in the prolog and below the
// document element — so update reports resolved over the arena read
// exactly as they did over the tree.
func TestArenaPathMatchesNodePath(t *testing.T) {
	kinds := map[NodeType]int{}
	for seed := int64(1); seed <= 20; seed++ {
		doc := spanDoc(seed)
		doc.Node.AppendChild(&Node{Type: ProcessingInstructionNode, Name: "tail", Data: "x"})
		doc.Renumber()
		ar := doc.BuildArena()
		doc.Walk(func(n *Node) bool {
			kinds[n.Type]++
			if got, want := ar.Path(int32(n.Order)), n.Path(); got != want {
				t.Fatalf("seed %d: Arena.Path(%d) = %q, Node.Path = %q", seed, n.Order, got, want)
			}
			return true
		})
	}
	for k := DocumentNode; k <= ProcessingInstructionNode; k++ {
		if kinds[k] == 0 {
			t.Errorf("no %s node was checked", k)
		}
	}
}

// TestMaterializeMaskedMatchesCloneMasked pins the arena's bulk copy to
// the tree clone it replaces for view materialization, node for node,
// and MaterializeNodes' index table to the copy's numbering.
func TestMaterializeMaskedMatchesCloneMasked(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		doc := spanDoc(seed)
		ar := doc.ReadArena()
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 5; k++ {
			mask := viewMask(doc, rng)
			if got, want := walkTrace(ar.MaterializeMasked(mask)), walkTrace(doc.CloneMasked(mask)); got != want {
				t.Fatalf("seed %d: masked copy differs:\narena: %s\ntree:  %s", seed, got, want)
			}
		}
		m, nodes := ar.MaterializeNodes()
		if got, want := walkTrace(m), walkTrace(doc); got != want {
			t.Fatalf("seed %d: full copy differs:\narena: %s\ntree:  %s", seed, got, want)
		}
		m.Walk(func(n *Node) bool {
			if &nodes[n.Order] != n {
				t.Fatalf("seed %d: nodes[%d] is not the copy numbered %d", seed, n.Order, n.Order)
			}
			return true
		})
		// The copy's lists are clipped: growing one never overwrites a
		// neighbour's.
		root := m.DocumentElement()
		before := m.String()
		root.AppendChild(NewElement("grown"))
		root.SetAttr("grown", "1")
		if n := len(root.Children); root.Children[n-1].Name != "grown" {
			t.Fatal("append to a materialized child list lost the node")
		}
		if strings.Count(m.String(), "grown") != 2 || len(m.String()) <= len(before) {
			t.Fatalf("seed %d: growing a materialized list disturbed the copy:\n%s", seed, m.String())
		}
	}
}
