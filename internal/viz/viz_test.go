package viz

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/degree"
	"repro/internal/explore"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/status"
	"repro/internal/term"
)

func fig3(t *testing.T) (*catalog.Catalog, *graph.Graph) {
	t.Helper()
	f11 := term.TwoSeason.MustTerm(2011, term.Fall)
	cat, err := catalog.NewBuilder(term.TwoSeason).
		Add(catalog.Course{ID: "11A", Offered: []term.Term{f11, f11.Add(2)}}).
		Add(catalog.Course{ID: "29A", Offered: []term.Term{f11, f11.Add(2)}}).
		Add(catalog.Course{ID: "21A", Prereq: expr.MustParse("11A"), Offered: []term.Term{f11.Next()}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	goal, err := degree.NewCourseSet(cat, "11A", "29A", "21A")
	if err != nil {
		t.Fatal(err)
	}
	start := status.New(cat, f11, bitset.New(3))
	res, err := explore.Goal(cat, start, f11.Add(2), goal,
		explore.PaperPruners(cat, goal, 3), explore.Options{MaxPerTerm: 3})
	if err != nil {
		t.Fatal(err)
	}
	return cat, res.Graph
}

func TestWriteDOT(t *testing.T) {
	cat, g := fig3(t)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, cat, g); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph learning_paths",
		"rankdir=LR",
		"n0 [",
		"->",
		"X={11A,29A}",
		"peripheries=2", // goal node styling
		"style=dashed",  // pruned node styling
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// Balanced braces.
	if strings.Count(out, "{") < 2 || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Error("DOT output malformed")
	}
}

func TestWriteTree(t *testing.T) {
	cat, g := fig3(t)
	var buf bytes.Buffer
	if err := WriteTree(&buf, cat, g, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "[GOAL]") {
		t.Error("tree output missing goal marker")
	}
	if !strings.Contains(out, "[pruned]") {
		t.Error("tree output missing pruned marker")
	}
	if !strings.Contains(out, "Fall '11") {
		t.Error("tree output missing term label")
	}
	// Depth limiting produces the ellipsis marker.
	buf.Reset()
	if err := WriteTree(&buf, cat, g, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "…") {
		t.Error("depth-limited tree missing ellipsis")
	}
}

func TestWriteTreeSharedNodes(t *testing.T) {
	// A merged DAG prints the shared node once, then by reference.
	f11 := term.TwoSeason.MustTerm(2011, term.Fall)
	cat, _ := catalog.NewBuilder(term.TwoSeason).
		Add(catalog.Course{ID: "A1", Offered: []term.Term{f11, f11.Next()}}).
		Add(catalog.Course{ID: "B1", Offered: []term.Term{f11, f11.Next()}}).
		Build()
	start := status.New(cat, f11, bitset.New(2))
	res, err := explore.Deadline(cat, start, f11.Add(2), explore.Options{MergeStatuses: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTree(&buf, cat, res.Graph, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(n") {
		t.Error("shared node reference missing from merged-DAG tree")
	}
}

func TestToJSON(t *testing.T) {
	cat, g := fig3(t)
	doc, truncated := ToJSON(cat, g, 0)
	if truncated != 0 {
		t.Errorf("unexpected truncation %d", truncated)
	}
	if len(doc.Nodes) != g.NumNodes() || len(doc.Edges) != g.NumEdges() {
		t.Errorf("JSON sizes %d/%d vs graph %d/%d",
			len(doc.Nodes), len(doc.Edges), g.NumNodes(), g.NumEdges())
	}
	if doc.Nodes[0].Term != "Fall 2011" {
		t.Errorf("root term = %q", doc.Nodes[0].Term)
	}
	foundGoal := false
	for _, n := range doc.Nodes {
		if n.Goal {
			foundGoal = true
		}
	}
	if !foundGoal {
		t.Error("goal flag lost in JSON")
	}
	// Truncation drops nodes and their edges consistently.
	doc2, truncated2 := ToJSON(cat, g, 2)
	if truncated2 != g.NumNodes()-2 || len(doc2.Nodes) != 2 {
		t.Errorf("truncation: %d nodes, %d dropped", len(doc2.Nodes), truncated2)
	}
	for _, e := range doc2.Edges {
		if e.From >= 2 || e.To >= 2 {
			t.Error("edge references dropped node")
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	cat, g := fig3(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, cat, g, 0); err != nil {
		t.Fatal(err)
	}
	var doc JSONGraph
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Root != 0 || len(doc.Nodes) == 0 {
		t.Errorf("decoded doc = %+v", doc)
	}
}

func TestPathString(t *testing.T) {
	cat, g := fig3(t)
	paths := g.Paths(true)
	if len(paths) == 0 {
		t.Fatal("no goal paths")
	}
	s := PathString(cat, g, paths[0])
	if !strings.Contains(s, "Fall '11: {11A, 29A}") || !strings.Contains(s, "→") {
		t.Errorf("PathString = %q", s)
	}
}

func TestWriteMermaid(t *testing.T) {
	cat, g := fig3(t)
	var buf bytes.Buffer
	if err := WriteMermaid(&buf, cat, g); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"flowchart LR",
		":::goal",
		":::pruned",
		"classDef goal",
		"-- \"{11A,29A}\" -->",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("mermaid missing %q:\n%s", want, out)
		}
	}
}

// referenceJSON is the encoding WriteJSON must reproduce byte for byte: a
// fresh indenting json.Encoder per document.
func referenceJSON(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// escapeCatalog explores a small catalog whose course IDs need JSON
// escaping (HTML-sensitive characters, U+2028) or are non-ASCII.
func escapeCatalog(t *testing.T) (*catalog.Catalog, *graph.Graph) {
	t.Helper()
	f11 := term.TwoSeason.MustTerm(2011, term.Fall)
	ids := []string{"<b>Intro</b>", "R&D 101", "Line\u2028Sep", "Évolution 1A", "数学 2B"}
	b := catalog.NewBuilder(term.TwoSeason)
	for i, id := range ids {
		c := catalog.Course{ID: id, Offered: []term.Term{f11, f11.Next(), f11.Add(2)}}
		if i == 1 {
			c.Prereq = expr.MustParse(`"<b>Intro</b>"`)
		}
		b.Add(c)
	}
	cat, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	goal, err := degree.NewCourseSet(cat, ids[:3]...)
	if err != nil {
		t.Fatal(err)
	}
	start := status.New(cat, f11, bitset.New(len(ids)))
	res, err := explore.Goal(cat, start, f11.Add(2), goal,
		explore.PaperPruners(cat, goal, 2), explore.Options{MaxPerTerm: 2})
	if err != nil {
		t.Fatal(err)
	}
	return cat, res.Graph
}

func TestWriteJSONMatchesIndentingEncoder(t *testing.T) {
	figCat, fig := fig3(t)
	escCat, esc := escapeCatalog(t)
	rootOnly := graph.New(status.New(figCat, term.TwoSeason.MustTerm(2011, term.Fall), bitset.New(3)))
	cases := []struct {
		name     string
		cat      *catalog.Catalog
		g        *graph.Graph
		maxNodes int
	}{
		{"fig3", figCat, fig, 0},
		{"fig3 truncated", figCat, fig, 2},
		{"fig3 one node", figCat, fig, 1},
		{"escaped ids", escCat, esc, 0},
		{"escaped ids truncated", escCat, esc, 3},
		{"root only", figCat, rootOnly, 0},
		{"empty graph", figCat, new(graph.Graph), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc, _ := ToJSON(tc.cat, tc.g, tc.maxNodes)
			want := referenceJSON(t, doc)
			var got bytes.Buffer
			// Twice: the second render runs on recycled scratch.
			for i := 0; i < 2; i++ {
				got.Reset()
				if err := WriteJSON(&got, tc.cat, tc.g, tc.maxNodes); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("render %d differs from the indenting encoder:\n got %q\nwant %q", i, got.Bytes(), want)
				}
			}
		})
	}
	// The escaped case must actually exercise escaping.
	doc, _ := ToJSON(escCat, esc, 0)
	for _, esc := range []string{`\u003cb\u003e`, `R\u0026D`, `Line\u2028Sep`, "数学"} {
		if !bytes.Contains(referenceJSON(t, doc), []byte(esc)) {
			t.Errorf("reference encoding lacks %s; the case does not test escaping", esc)
		}
	}
}

func TestWriteJSONConcurrent(t *testing.T) {
	figCat, fig := fig3(t)
	escCat, esc := escapeCatalog(t)
	type job struct {
		cat      *catalog.Catalog
		g        *graph.Graph
		maxNodes int
		want     []byte
	}
	var jobs []job
	for _, j := range []job{{cat: figCat, g: fig}, {cat: figCat, g: fig, maxNodes: 2}, {cat: escCat, g: esc}} {
		doc, _ := ToJSON(j.cat, j.g, j.maxNodes)
		j.want = referenceJSON(t, doc)
		jobs = append(jobs, j)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < 50; i++ {
				j := jobs[(w+i)%len(jobs)]
				buf.Reset()
				if err := WriteJSON(&buf, j.cat, j.g, j.maxNodes); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf.Bytes(), j.want) {
					t.Errorf("worker %d render %d differs from the indenting encoder", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestRenderScratchOverCapNotPooled(t *testing.T) {
	// A document whose encoding exceeds the cap: both scratch buffers
	// outgrow it, so the render must drop them instead of pooling.
	big := JSONGraph{Nodes: []JSONNode{{Term: strings.Repeat("x", maxPooledRender)}}}
	var out bytes.Buffer
	if err := writeIndented(&out, big); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), referenceJSON(t, big)) {
		t.Fatal("oversized render differs from the indenting encoder")
	}
	for i := 0; i < 16; i++ {
		b := renderPool.Get().(*renderBufs)
		if b.compact.Cap() > maxPooledRender || b.indented.Cap() > maxPooledRender {
			t.Fatalf("pool returned scratch of %d/%d bytes, over the %d cap",
				b.compact.Cap(), b.indented.Cap(), maxPooledRender)
		}
	}

	// release applies the same rule directly.
	over := new(renderBufs)
	over.indented.Grow(maxPooledRender + 1)
	over.release()
	small := new(renderBufs)
	small.compact.Grow(64)
	small.release()
	for i := 0; i < 16; i++ {
		if b := renderPool.Get().(*renderBufs); b == over {
			t.Fatal("release pooled scratch over the cap")
		}
	}
}
