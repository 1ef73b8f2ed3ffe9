// Streaming: consume learning paths incrementally as the engine finds
// them — callback, iterator and NDJSON-over-HTTP, the three faces of the
// sink-based exploration core.
//
//	go run ./examples/streaming
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro"
	"repro/internal/server"
)

func main() {
	nav, major := coursenav.Brandeis()
	q := coursenav.Query{Start: "Fall 2013", End: "Fall 2015", MaxPerTerm: 3, Goal: major}

	// 1. Callback streaming: every completed path is delivered the moment
	// the engine finishes it; no graph is materialised, so memory stays
	// proportional to the search depth even when millions of paths exist.
	// Returning ErrStopStream ends the run cleanly.
	fmt.Println("— callback: the first two goal paths —")
	goalSeen := 0
	sum, err := nav.Stream(context.Background(), q, func(p coursenav.StreamedPath) error {
		if !p.Goal {
			return nil
		}
		goalSeen++
		fmt.Printf("%d. %s\n", goalSeen, p.Path)
		if goalSeen == 2 {
			return coursenav.ErrStopStream
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine stopped early (stopped=%s) after %d generated paths\n\n", sum.Stopped, sum.Paths)

	// 2. Iterator streaming: the same engine as a Go 1.23 range-over-func
	// sequence. Breaking the loop stops the exploration.
	fmt.Println("— iterator: the single best plan, best-first —")
	q.Ranking, q.K = "time", 5
	for p, err := range nav.Seq(context.Background(), q) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("best (%.0f semesters): %s\n\n", p.Value, p.Path)
		break // the first ranked delivery is already the optimum
	}

	// 3. HTTP streaming: ?stream=1 turns the explore endpoints into
	// NDJSON — one {"path":...} record per line as it is found, then a
	// trailing {"summary":...} record. A real deployment would use
	// server.New(nav) behind http.ListenAndServe; httptest keeps this
	// example self-contained.
	fmt.Println("— HTTP: NDJSON records from /api/v1/explore/goal?stream=1 —")
	ts := httptest.NewServer(server.New(nav))
	defer ts.Close()
	body := `{"query":{"start":"Fall 2013","end":"Fall 2015","maxPerTerm":3},` +
		`"goal":{"courses":["COSI 21A","COSI 31A"]},"budget":{"maxPaths":3}}`
	resp, err := http.Post(ts.URL+"/api/v1/explore/goal?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	fmt.Printf("Content-Type: %s\n", resp.Header.Get("Content-Type"))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if len(line) > 100 {
			line = line[:100] + "…"
		}
		fmt.Println(line)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}
