// NDJSON streaming for the explore endpoints (?stream=1).
//
// A streamed exploration answers with Content-Type application/x-ndjson:
// one JSON record per line, flushed as written, so the first path reaches
// the client while the engine is still searching — the interactivity the
// paper's §5 latency numbers are about, but without waiting for the run
// to finish at all. The record vocabulary:
//
//	{"path":{...}}       one learning path (deadline/goal/ranked)
//	{"selection":{...}}  one scored selection (whatif)
//	{"summary":{...}}    trailing record: the run's final tallies
//	{"error":{...}}      terminal record: the run failed mid-stream
//
// Exactly one of summary/error ends a healthy stream; a stream that ends
// with neither was cut by the transport. Errors detected before the
// first record (bad request body, unknown course, invalid window) are
// returned as the ordinary JSON error envelope with a 4xx status — the
// NDJSON framing starts only once the first record is written.
package server

import (
	"context"
	"encoding/json"
	"net/http"

	"repro"
	"repro/internal/chaos"
	"repro/internal/explore"
)

// wantsStream reports whether the request opted into NDJSON streaming.
func wantsStream(r *http.Request) bool {
	switch r.URL.Query().Get("stream") {
	case "1", "true":
		return true
	}
	return false
}

// streamable rejects request shapes that cannot stream: countOnly runs
// deliver no paths, so combining the two is a contradiction.
func streamable(w http.ResponseWriter, req *ExploreRequest) bool {
	if req.Query.CountOnly {
		writeErr(w, http.StatusBadRequest, CodeBadRequest,
			"countOnly and ?stream=1 are mutually exclusive: a counting run delivers no paths to stream")
		return false
	}
	return true
}

// streamWriter frames NDJSON records onto the response. The header is
// written lazily with the first record, so pre-start failures still get
// a plain 4xx JSON envelope; each record is flushed as soon as it is
// encoded. The first write failure kills the stream (the client is
// gone — statusRecorder reports it as a write abort).
type streamWriter struct {
	w       http.ResponseWriter
	enc     *json.Encoder
	flush   func()
	chaos   *chaos.Injector
	started bool
	err     error
	paths   int64
}

func (s *Server) newStreamWriter(w http.ResponseWriter) *streamWriter {
	sw := &streamWriter{w: w, enc: json.NewEncoder(w), chaos: s.Chaos}
	if f, ok := w.(http.Flusher); ok {
		sw.flush = f.Flush
	}
	return sw
}

// record writes one NDJSON record and flushes it to the client.
func (sw *streamWriter) record(v interface{}) error {
	if sw.err != nil {
		return sw.err
	}
	// The mid-stream-write chaos seam: an injected error behaves exactly
	// like the transport dying (the run aborts, usage reports a write
	// abort); an injected panic exercises the in-band error-record
	// recovery; injected latency models a slow reader applying
	// backpressure. Fires before the header too — a pre-start failure is
	// a client that died between request and first record.
	if err := sw.chaos.Fire(chaos.StreamWrite); err != nil {
		sw.err = err
		return err
	}
	if !sw.started {
		sw.started = true
		if rec, ok := sw.w.(*statusRecorder); ok {
			// Once the NDJSON header is on the wire the plain error envelope
			// is no longer expressible; the panic recovery keys off this.
			rec.ndjson = true
		}
		sw.w.Header().Set("Content-Type", "application/x-ndjson")
		sw.w.WriteHeader(http.StatusOK)
	}
	if err := sw.enc.Encode(v); err != nil {
		sw.err = err
		return err
	}
	if sw.flush != nil {
		sw.flush()
	}
	return nil
}

type pathRecord struct {
	Path coursenav.StreamedPath `json:"path"`
}

type selectionRecord struct {
	Selection coursenav.SelectionImpact `json:"selection"`
}

type summaryRecord struct {
	Summary summaryBody `json:"summary"`
}

// finishStream closes the stream after the run returned: a clean run
// gets its trailing summary record; a run that failed after records went
// out gets an in-band {"error":...} record (the status line already said
// 200 — the error record is the only way to tell the client); a run that
// failed before any record fell back to the plain JSON envelope; a dead
// socket gets nothing.
func (s *Server) finishStream(w http.ResponseWriter, sw *streamWriter, err error, trailer interface{}) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.streamed = sw.started
		rec.streamedPaths = sw.paths
	}
	switch {
	case err == nil:
		_ = sw.record(trailer)
	case !sw.started:
		s.writeNavErr(w, err)
	case sw.err != nil:
		// The write failed: the client disconnected mid-stream. The run
		// was aborted through the callback error; nothing can be sent.
	default:
		_ = sw.record(errorBody{Error: errorInfo{Code: CodeInternal, Message: err.Error()}})
	}
}

// streamPaths drives one path-streaming run (deadline, goal or ranked)
// behind a façade closure, translating delivered paths into NDJSON
// records and the final Summary into the trailing summary record. It
// returns the run's summary and whether the run was complete — no error,
// no failed write, no early stop — so callers can decide to populate the
// result cache from the streamed run.
func (s *Server) streamPaths(w http.ResponseWriter, r *http.Request, req *ExploreRequest, run func(context.Context, func(coursenav.StreamedPath) error) (coursenav.Summary, error)) (coursenav.Summary, bool) {
	ctx, cancel := s.runCtx(r, req.Budget)
	defer cancel()
	sw := s.newStreamWriter(w)
	sum, err := run(ctx, func(p coursenav.StreamedPath) error {
		if err := sw.record(pathRecord{Path: p}); err != nil {
			return err
		}
		sw.paths++
		return nil
	})
	recorder(w).setExplore(window(req.Query), sw.paths, streamStopped(sum.Stopped, sw))
	s.finishStream(w, sw, err, summaryRecord{Summary: toSummaryBody(sum)})
	return sum, err == nil && sw.err == nil && sum.Stopped == ""
}

// whatIfStreamSummary is the trailing summary record of a streamed
// what-if comparison.
type whatIfStreamSummary struct {
	// Selections is the number of fully scored candidates delivered.
	Selections int64 `json:"selections"`
	// Stopped names why scoring ended early; delivered selections carry
	// exact tallies regardless.
	Stopped string `json:"stopped,omitempty"`
}

type whatIfSummaryRecord struct {
	Summary whatIfStreamSummary `json:"summary"`
}

// streamWhatIf drives a streamed selection comparison: one
// {"selection":...} record per scored candidate, in enumeration order
// (tallies are exact; order is not impact-sorted), then the trailing
// summary.
func (s *Server) streamWhatIf(w http.ResponseWriter, r *http.Request, req *ExploreRequest, nav *coursenav.Navigator, goal coursenav.Goal) {
	ctx, cancel := s.runCtx(r, req.Budget)
	defer cancel()
	sw := s.newStreamWriter(w)
	var n int64
	stopped, err := nav.WhatIfStream(ctx, s.query(req.Query, req.Budget), goal, func(im coursenav.SelectionImpact) error {
		if err := sw.record(selectionRecord{Selection: im}); err != nil {
			return err
		}
		n++
		return nil
	})
	recorder(w).setExplore(window(req.Query), n, streamStopped(stopped, sw))
	s.finishStream(w, sw, err, whatIfSummaryRecord{Summary: whatIfStreamSummary{Selections: n, Stopped: stopped}})
}

// streamStopped resolves the stop reason recorded in usage: a mid-stream
// write failure means the client went away, which the engine surfaces as
// a cancel even when its own tally beat it to a different reason.
func streamStopped(stopped string, sw *streamWriter) string {
	if sw.err != nil {
		return explore.StopCanceled
	}
	return stopped
}
