package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"gcao/internal/cache"
)

// tinySrc compiles in a few hundred microseconds and keeps a request body
// small enough to sit beside a tight body bound.
const tinySrc = "routine tiny(n)\nreal a(n)\n!hpf$ distribute (block) :: a\ndo i = 1, n\na(i) = 1.0\nenddo\nend"

// TestBodyDecoding pins what a /compile body may hold:
// one JSON object, whitespace around it and fields the daemon does not
// know; anything after the object is a 400, as an empty body is, and a
// body one byte over maxBody is a 413 whether or not it declares its
// length.
func TestBodyDecoding(t *testing.T) {
	const maxBody = 1024
	s := newServer(serverConfig{reqTimeout: 30 * time.Second, maxBody: maxBody, logW: io.Discard})
	defer s.close()
	h := s.handler()
	obj := `{"source": ` + jsonString(tinySrc) + `, "params": {"n": 8}, "procs": 2}`
	pad := func(body string, n int) string { return body + strings.Repeat(" ", n-len(body)) }
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"object", obj, http.StatusOK},
		{"whitespace around", "\n\t " + obj + " \r\n", http.StatusOK},
		{"unknown fields", obj[:len(obj)-1] + `, "colour": "blue"}`, http.StatusOK},
		{"trailing data", obj + ` {"source": 7} trailing`, http.StatusBadRequest},
		{"second object", obj + obj, http.StatusBadRequest},
		{"empty", "", http.StatusBadRequest},
		{"whitespace only", "  \n", http.StatusBadRequest},
		{"maxBody bytes", pad(obj, maxBody), http.StatusOK},
		{"maxBody+1 bytes", pad(obj, maxBody+1), http.StatusRequestEntityTooLarge},
	} {
		for _, sized := range []bool{true, false} {
			var body io.Reader = strings.NewReader(tc.body)
			if !sized {
				body = io.MultiReader(body) // no Content-Length: the read decides
			}
			req := httptest.NewRequest(http.MethodPost, "/compile", body)
			if sized != (req.ContentLength == int64(len(tc.body))) {
				t.Fatalf("%s: Content-Length %d", tc.name, req.ContentLength)
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != tc.want {
				t.Errorf("%s (sized %v): status %d, want %d: %s", tc.name, sized, w.Code, tc.want, w.Body)
			}
		}
	}
}

// jsonString renders s as a JSON string.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// compareReply reads a reply as JSON less what legitimately differs from
// request to request: its id.
func compareReply(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "req_id")
	return doc
}

// TestBodyTierSameAnswers: a body served from the body tier gets the reply
// it gets from a daemon whose body tier is empty, every field but the
// request id, from 8 goroutines at once.
func TestBodyTierSameAnswers(t *testing.T) {
	s := benchServer(t)
	h := s.handler()
	body, err := json.Marshal(compileRequest{
		Source: stencilSrc, Params: map[string]int{"n": 8, "steps": 2}, Procs: 4,
		Estimate: true, Simulate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustServe(t, h, body)
	s.bodies = cache.New(s.cfg.cacheEntries, s.cfg.cacheBytes)
	want := compareReply(t, mustServe(t, h, body))
	if want["simulate"] == nil || want["estimate"] == nil {
		t.Fatalf("reference reply lacks the estimate or the simulation: %v", want)
	}
	const goroutines, each = 8, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				raw, err := serve(h, body)
				if err != nil {
					t.Error(err)
					return
				}
				if got := compareReply(t, raw); !reflect.DeepEqual(got, want) {
					t.Errorf("reply from the body tier %v, from an empty one %v", got, want)
				}
			}
		}()
	}
	wg.Wait()
	if st := s.bodies.Stats(); st.Hits != goroutines*each || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("body tier %+v: want %d hits on the one body kept", st, goroutines*each)
	}
}

// TestFailedBodiesNotKept: a body is kept only once its request succeeded.
// After 100 distinct failing requests — malformed JSON, an unknown
// strategy, a source that does not compile — the body tier holds nothing,
// and a succeeding one is kept.
func TestFailedBodiesNotKept(t *testing.T) {
	s := benchServer(t)
	h := s.handler()
	for i := 0; i < 100; i++ {
		var body string
		switch i % 3 {
		case 0:
			body = fmt.Sprintf(`{"source": "routine r%d(n)`, i)
		case 1:
			body = fmt.Sprintf(`{"source": %s, "params": {"n": %d}, "procs": 2, "strategy": "fastest"}`, jsonString(tinySrc), 8+i)
		case 2:
			body = fmt.Sprintf(`{"source": "routine broken%d(", "procs": 2}`, i)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/compile", strings.NewReader(body)))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("failing request %d: status %d, want 400: %s", i, w.Code, w.Body)
		}
	}
	if st := s.bodies.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Misses != 100 {
		t.Fatalf("after 100 failing requests the body tier is %+v, want 100 misses and nothing kept", st)
	}
	mustServe(t, h, []byte(`{"source": `+jsonString(tinySrc)+`, "params": {"n": 8}, "procs": 2}`))
	if n := s.bodies.Stats().Entries; n != 1 {
		t.Fatalf("a succeeding request left %d bodies, want 1", n)
	}
}

// TestBodyTierChargesCounted: the body tier charges a resident body what
// it holds — the body as its key, the decoded request, the strings decoding
// made for it and the parameter map's keys and values — nothing fitted.
func TestBodyTierChargesCounted(t *testing.T) {
	s := benchServer(t)
	h := s.handler()
	body := []byte(`{"source": ` + jsonString(tinySrc) + `, "params": {"n": 8}, "procs": 2, "strategy": "comb", "machine": "SP2", "backend": "sim"}`)
	mustServe(t, h, body)
	var req compileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	want := int64(len(body)) + int64(unsafe.Sizeof(req)) +
		int64(len(tinySrc)+len("comb")+len("SP2")+len("sim")) +
		int64(len("n")) + int64(unsafe.Sizeof("")+unsafe.Sizeof(0))
	if st := s.bodies.Stats(); st.Entries != 1 || st.Bytes != want {
		t.Errorf("body tier holds %d entries charged %d B; one body holds %d B", st.Entries, st.Bytes, want)
	}
}

// TestBodyTierBounded: the body tier is bounded by -cache-entries, as
// every tier is, and says so where the other tiers do.
func TestBodyTierBounded(t *testing.T) {
	s := newServer(serverConfig{reqTimeout: 30 * time.Second, cacheEntries: 2, logW: io.Discard, logLevel: slog.LevelError})
	defer s.close()
	h := s.handler()
	for n := 8; n < 12; n++ {
		mustServe(t, h, []byte(fmt.Sprintf(`{"source": %s, "params": {"n": %d}, "procs": 2}`, jsonString(tinySrc), n)))
	}
	if st := s.bodies.Stats(); st.Entries != 2 || st.Evictions != 2 || st.MaxEntries != 2 {
		t.Errorf("body tier %+v: want 2 entries after 2 evictions", st)
	}
	var tiers []string
	for _, tier := range s.cacheTierStats() {
		tiers = append(tiers, tier.Tier)
	}
	if !reflect.DeepEqual(tiers, []string{"compile", "place", "skeleton", "body"}) {
		t.Errorf("gcao_cache_* tiers %v", tiers)
	}
}
