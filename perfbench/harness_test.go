package main

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"
)

// cannedReply is a 200 reply carrying body with Content-Length framing.
func cannedReply(body string) string {
	return "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Cache: hit\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

// stubServer answers every HTTP/1.1 request on a loopback listener with
// one canned reply, parsing no more than the header block and the
// Content-Length, so it allocates next to nothing per request. Run
// against it, the harness's client shows its own share of the
// benchmark's allocation metrics.
func stubServer(tb testing.TB, raw string) *liveServer {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	reply := []byte(raw)
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				rd := bufio.NewReader(conn)
				for {
					n := 0
					for {
						line, err := rd.ReadSlice('\n')
						if err != nil {
							return
						}
						if len(line) <= 2 {
							break
						}
						if k, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
							n, _ = parseInt(bytes.TrimSpace(k), 10)
						}
					}
					if _, err := rd.Discard(n); err != nil {
						return
					}
					if _, err := conn.Write(reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	ls := &liveServer{
		addr: ln.Addr().String(),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
	}
	tb.Cleanup(func() {
		ls.client.CloseIdleConnections()
		ln.Close()
		<-done
		wg.Wait()
	})
	return ls
}

// BenchmarkHarnessClient measures what one interactive request costs
// the harness itself — request construction, the http.Client, reading
// the body, fingerprinting and tallying — against the stub, on the
// browse-hot stream. Its allocs/op is the client's share of
// allocs_per_op.
func BenchmarkHarnessClient(b *testing.B) {
	nav, err := newNavigator()
	if err != nil {
		b.Fatal(err)
	}
	p, err := buildPlan(nav, wlBrowse, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	body := `{"summary":{"paths":120,"goalPaths":14,"nodes":310,"edges":402,"prunedTime":12,"prunedAvail":40,"elapsedMs":0.061,"dag":true}}` + "\n"
	ls := stubServer(b, cannedReply(body))
	t := newTally(reservoirSize, p.distinct())
	c := &client{ls: ls, epoch: time.Now()}
	defer c.close()
	for i := range p.warm {
		c.send(i, &p.warm[i], t)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.send(i, &p.stream[i%len(p.stream)], t)
	}
	b.StopTimer()
	for _, a := range t.answers {
		if a.errMsg != "" {
			b.Fatalf("%d stub requests failed: %s", a.count, a.errMsg)
		}
	}
}

// TestStubServerAnswers keeps the stub honest: a request through the
// net/http client gets the canned body back.
func TestStubServerAnswers(t *testing.T) {
	ls := stubServer(t, cannedReply(`{"ok":true}`))
	code, body, err := ls.do(http.MethodPost, "/x", []byte(`{"a":1}`))
	if err != nil || code != http.StatusOK || string(body) != `{"ok":true}` {
		t.Fatalf("stub answered %d %q %v", code, body, err)
	}
}

// TestClientReadsBothFramings sends two requests over one connection for
// each reply framing a net/http server uses and checks the body, status
// and X-Cache the client reads.
func TestClientReadsBothFramings(t *testing.T) {
	const body = `{"options":["COSI 10A","COSI 11A"]}` + "\n"
	chunked := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nX-Cache: miss\r\n\r\n" +
		"a\r\n" + body[:10] + "\r\n" + strconv.FormatInt(int64(len(body)-10), 16) + "\r\n" + body[10:] + "\r\n0\r\n\r\n"
	for name, raw := range map[string]string{"content-length": cannedReply(body), "chunked": chunked} {
		ls := stubServer(t, raw)
		tl := newTally(4, 4)
		c := &client{ls: ls, epoch: time.Now()}
		r := &request{ep: epOptions, key: "k", path: "/api/v1/options?term=Fall+2013"}
		c.send(0, r, tl)
		c.send(1, r, tl)
		c.close()
		if tl.ok != 2 || string(c.body) != body {
			t.Fatalf("%s: %d ok, %d failed, body %q", name, tl.ok, tl.failed, c.body)
		}
		if want := dispNames[map[string]string{"content-length": "hit", "chunked": "miss"}[name]]; tl.samples[0].disp != want {
			t.Fatalf("%s: disposition %d, want %d", name, tl.samples[0].disp, want)
		}
	}
}
