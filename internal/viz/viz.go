// Package viz is the reproduction of CourseNavigator's Learning Path
// Visualizer (paper §3, Figure 2): it renders learning graphs for human
// consumption. Three renderers are provided — Graphviz DOT (the figures'
// box-and-arrow form), an indented ASCII tree for terminals, and a JSON
// document for the front-end service.
package viz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/graph"
)

// nodeLabel renders a node like the paper's figures:
// "n3 | Spring '12 | X={11A,29A} | Y={21A}".
func nodeLabel(cat *catalog.Catalog, g *graph.Graph, id graph.NodeID) string {
	n := g.Node(id)
	return fmt.Sprintf("n%d\\ns=%s\\nX={%s}\\nY={%s}",
		id,
		n.Status.Term,
		strings.Join(cat.IDs(n.Status.Completed), ","),
		strings.Join(cat.IDs(n.Status.Options), ","))
}

// WriteDOT renders the graph in Graphviz DOT form. Goal nodes are drawn
// with a double border, pruned nodes greyed out; edges are labelled with
// their selection W (and cost when non-zero).
func WriteDOT(w io.Writer, cat *catalog.Catalog, g *graph.Graph) error {
	var b strings.Builder
	b.WriteString("digraph learning_paths {\n")
	b.WriteString("  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	for i := 0; i < g.NumNodes(); i++ {
		id := graph.NodeID(i)
		n := g.Node(id)
		attrs := []string{fmt.Sprintf("label=\"%s\"", nodeLabel(cat, g, id))}
		if n.Goal {
			attrs = append(attrs, "peripheries=2", "color=darkgreen")
		}
		if n.Pruned {
			attrs = append(attrs, "style=dashed", "color=gray", "fontcolor=gray")
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", i, strings.Join(attrs, ", "))
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		label := "{" + strings.Join(cat.IDs(e.Selection), ",") + "}"
		if e.Cost != 0 {
			label += fmt.Sprintf(" (%.3g)", e.Cost)
		}
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"%s\", fontsize=9];\n", e.From, e.To, label)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteTree renders the graph as an indented ASCII tree rooted at the
// start status. Shared (merged) nodes are expanded once and referenced
// afterwards. maxDepth ≤ 0 means no limit.
func WriteTree(w io.Writer, cat *catalog.Catalog, g *graph.Graph, maxDepth int) error {
	seen := make(map[graph.NodeID]bool)
	var rec func(id graph.NodeID, prefix string, depth int) error
	rec = func(id graph.NodeID, prefix string, depth int) error {
		n := g.Node(id)
		marks := ""
		if n.Goal {
			marks += " [GOAL]"
		}
		if n.Pruned {
			marks += " [pruned]"
		}
		if seen[id] {
			_, err := fmt.Fprintf(w, "%s(n%d)%s\n", prefix, id, marks)
			return err
		}
		seen[id] = true
		if _, err := fmt.Fprintf(w, "%sn%d %s X={%s}%s\n",
			prefix, id, n.Status.Term, strings.Join(cat.IDs(n.Status.Completed), ","), marks); err != nil {
			return err
		}
		if maxDepth > 0 && depth >= maxDepth {
			if len(n.Out) > 0 {
				_, err := fmt.Fprintf(w, "%s  …\n", prefix)
				return err
			}
			return nil
		}
		for _, eid := range n.Out {
			e := g.Edge(eid)
			if _, err := fmt.Fprintf(w, "%s  +--{%s}-->\n", prefix, strings.Join(cat.IDs(e.Selection), ",")); err != nil {
				return err
			}
			if err := rec(e.To, prefix+"  |   ", depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(g.Root(), "", 0)
}

// JSONNode is the front-end form of a learning-graph node.
type JSONNode struct {
	ID        int      `json:"id"`
	Term      string   `json:"term"`
	Completed []string `json:"completed"`
	Options   []string `json:"options"`
	Goal      bool     `json:"goal,omitempty"`
	Pruned    bool     `json:"pruned,omitempty"`
}

// JSONEdge is the front-end form of a learning-graph edge.
type JSONEdge struct {
	From      int      `json:"from"`
	To        int      `json:"to"`
	Selection []string `json:"selection"`
	Cost      float64  `json:"cost,omitempty"`
}

// JSONGraph is the front-end form of a learning graph.
type JSONGraph struct {
	Root  int        `json:"root"`
	Nodes []JSONNode `json:"nodes"`
	Edges []JSONEdge `json:"edges"`
}

// ToJSON converts a learning graph to its front-end form. maxNodes ≤ 0
// means no limit; otherwise nodes beyond the limit are dropped along with
// their edges (breadth is preserved in ID order, which is generation
// order) and Truncated reports how many nodes were omitted.
func ToJSON(cat *catalog.Catalog, g *graph.Graph, maxNodes int) (JSONGraph, int) {
	n := g.NumNodes()
	truncated := 0
	if maxNodes > 0 && n > maxNodes {
		truncated = n - maxNodes
		n = maxNodes
	}
	out := JSONGraph{Root: int(g.Root()), Nodes: make([]JSONNode, 0, n)}
	for i := 0; i < n; i++ {
		nd := g.Node(graph.NodeID(i))
		out.Nodes = append(out.Nodes, JSONNode{
			ID:        i,
			Term:      nd.Status.Term.Label(),
			Completed: cat.IDs(nd.Status.Completed),
			Options:   cat.IDs(nd.Status.Options),
			Goal:      nd.Goal,
			Pruned:    nd.Pruned,
		})
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		if int(e.From) >= n || int(e.To) >= n {
			continue
		}
		out.Edges = append(out.Edges, JSONEdge{
			From:      int(e.From),
			To:        int(e.To),
			Selection: cat.IDs(e.Selection),
			Cost:      e.Cost,
		})
	}
	return out, truncated
}

// WriteJSON writes the front-end JSON form of the graph, two-space
// indented and newline-terminated.
func WriteJSON(w io.Writer, cat *catalog.Catalog, g *graph.Graph, maxNodes int) error {
	doc, _ := ToJSON(cat, g, maxNodes)
	return writeIndented(w, doc)
}

// renderBufs are one render's scratch: the compact encoding and its
// indented form.
type renderBufs struct{ compact, indented bytes.Buffer }

// renderPool recycles render scratch across calls, so a steady stream of
// graph renders reuses its buffers instead of growing new ones per call.
var renderPool = sync.Pool{New: func() any { return new(renderBufs) }}

// maxPooledRender caps the scratch kept in renderPool — the server's 1 MiB
// result-cache entry cap. A rarer, larger render does not pin its buffers:
// it grows and drops its own pair (json.Indent reserves twice the compact
// size), which still allocates about half of what an indenting
// json.Encoder grows per call (EXPERIMENTS.md, "Query-sized DAG storage").
const maxPooledRender = 1 << 20

// release returns the scratch to renderPool unless a buffer outgrew
// maxPooledRender.
func (b *renderBufs) release() {
	if b.compact.Cap() <= maxPooledRender && b.indented.Cap() <= maxPooledRender {
		renderPool.Put(b)
	}
}

// writeIndented writes v exactly as a json.Encoder with SetIndent("", "  ")
// would: the compact encoding plus its newline, run through the same
// indenter.
func writeIndented(w io.Writer, v any) error {
	bufs := renderPool.Get().(*renderBufs)
	defer bufs.release()
	bufs.compact.Reset()
	bufs.indented.Reset()
	if err := json.NewEncoder(&bufs.compact).Encode(v); err != nil {
		return err
	}
	if err := json.Indent(&bufs.indented, bufs.compact.Bytes(), "", "  "); err != nil {
		return err
	}
	_, err := w.Write(bufs.indented.Bytes())
	return err
}

// PathString renders one path as the semester-by-semester selections,
// e.g. "Fall '11: {11A, 29A} → Spring '12: {21A}".
func PathString(cat *catalog.Catalog, g *graph.Graph, p graph.Path) string {
	parts := make([]string, 0, len(p.Edges))
	for i, eid := range p.Edges {
		e := g.Edge(eid)
		from := g.Node(p.Nodes[i])
		parts = append(parts, fmt.Sprintf("%s: {%s}",
			from.Status.Term, strings.Join(cat.IDs(e.Selection), ", ")))
	}
	return strings.Join(parts, " → ")
}

// WriteMermaid renders the graph as a Mermaid flowchart — the format
// GitHub and most wikis render inline, so learning graphs can be pasted
// straight into documentation and issue threads.
func WriteMermaid(w io.Writer, cat *catalog.Catalog, g *graph.Graph) error {
	var b strings.Builder
	b.WriteString("flowchart LR\n")
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(graph.NodeID(i))
		label := fmt.Sprintf("%s<br/>X={%s}", n.Status.Term,
			strings.Join(cat.IDs(n.Status.Completed), ","))
		switch {
		case n.Goal:
			fmt.Fprintf(&b, "  n%d([\"%s\"]):::goal\n", i, label)
		case n.Pruned:
			fmt.Fprintf(&b, "  n%d[\"%s\"]:::pruned\n", i, label)
		default:
			fmt.Fprintf(&b, "  n%d[\"%s\"]\n", i, label)
		}
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		fmt.Fprintf(&b, "  n%d -- \"{%s}\" --> n%d\n",
			e.From, strings.Join(cat.IDs(e.Selection), ","), e.To)
	}
	b.WriteString("  classDef goal stroke:#2e7d32,stroke-width:3px\n")
	b.WriteString("  classDef pruned stroke:#9e9e9e,stroke-dasharray:4\n")
	_, err := io.WriteString(w, b.String())
	return err
}
